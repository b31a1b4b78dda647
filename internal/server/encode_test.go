package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"segdb"
)

// toWire is the reflection-era conversion: the reference encoding runs
// the documented wire types through encoding/json.
func toWire(segs []segdb.Segment) []WireSegment {
	out := make([]WireSegment, len(segs))
	for i, sg := range segs {
		out[i] = WireSegment{ID: sg.ID, AX: sg.A.X, AY: sg.A.Y, BX: sg.B.X, BY: sg.B.Y}
	}
	return out
}

// referenceSingle and referenceBatch encode what the handler would have
// built as a QueryResponse, with encoding/json.
func referenceSingle(hits []segdb.Segment, omitHits bool, elapsedMS float64) ([]byte, error) {
	resp := QueryResponse{QueryResult: QueryResult{Count: len(hits)}, ElapsedMS: elapsedMS}
	if !omitHits {
		resp.Hits = toWire(hits)
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes(), err
}

func referenceBatch(results []segdb.BatchResult, omitHits bool, elapsedMS float64) ([]byte, error) {
	resp := QueryResponse{Results: make([]QueryResult, len(results)), ElapsedMS: elapsedMS}
	for i, br := range results {
		qr := QueryResult{Count: len(br.Hits)}
		if !omitHits {
			qr.Hits = toWire(br.Hits)
		}
		if br.Err != nil {
			qr.Error = br.Err.Error()
		}
		resp.Results[i] = qr
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes(), err
}

// checkSingle and checkBatch fail t unless the append encoder's bytes are
// encoding/json's, or both refuse the input.
func checkSingle(t *testing.T, hits []segdb.Segment, omitHits bool, elapsedMS float64) {
	t.Helper()
	want, werr := referenceSingle(hits, omitHits, elapsedMS)
	enc := hits
	if omitHits {
		enc = nil
	}
	got, gerr := appendSingleResponse(nil, len(hits), enc, elapsedMS)
	compare(t, "single", got, gerr, want, werr)
}

func checkBatch(t *testing.T, results []segdb.BatchResult, omitHits bool, par int, elapsedMS float64) {
	t.Helper()
	want, werr := referenceBatch(results, omitHits, elapsedMS)
	got, gerr := appendBatchResponse(nil, results, omitHits, par, elapsedMS)
	compare(t, fmt.Sprintf("batch[%d] par=%d", len(results), par), got, gerr, want, werr)
}

func compare(t *testing.T, what string, got []byte, gerr error, want []byte, werr error) {
	t.Helper()
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("%s: encoder error %v, encoding/json error %v", what, gerr, werr)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s: encoder bytes differ from encoding/json\n got %q\nwant %q", what, got, want)
	}
}

// edgeFloats are the formatting boundaries of encoding/json's float
// encoder plus subnormals and extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, -1e-6, 9.999999999999999e-7,
	1e20, 1e21, -1e21, 9.999999999999999e20, 123456789, 0.1, -2.5, 1.0 / 3,
	5e-324, -5e-324, 2.2250738585072014e-308 / 2, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, 1e-300, 1e300, 1e-10, 1.5e-9, 3e-100,
}

func randomFloat(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return edgeFloats[rng.Intn(len(edgeFloats))]
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsInf(f, 0) && !math.IsNaN(f) {
			return f
		}
	}
}

func randomHits(rng *rand.Rand, n int) []segdb.Segment {
	if n == 0 {
		return nil
	}
	hits := make([]segdb.Segment, n)
	for i := range hits {
		hits[i] = segdb.NewSegment(rng.Uint64()>>uint(rng.Intn(64)),
			randomFloat(rng), randomFloat(rng), randomFloat(rng), randomFloat(rng))
	}
	return hits
}

// nastyErrors are per-result error strings exercising every escape class.
var nastyErrors = []string{
	`<script>alert("x&y")</script>`,
	"back\\slash \"quoted\" tab\there\nnewline\rcr\bbs\fff",
	"ctl \x00\x01\x1f\x7f del",
	"line sep \u2028 para sep \u2029 é ☃ 𝄞",
	"invalid utf8 \xff\xfe \xc3",
	"plain error",
}

func TestEncodeFloatsMatchEncodingJSON(t *testing.T) {
	for _, f := range edgeFloats {
		checkSingle(t, []segdb.Segment{segdb.NewSegment(1, f, -f, f, 0)}, false, f)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		f := randomFloat(rng)
		checkSingle(t, []segdb.Segment{segdb.NewSegment(rng.Uint64(), f, f, f, f)}, false, math.Abs(f))
	}
}

func TestEncodeSingleMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, 17, 300} {
		for _, omit := range []bool{false, true} {
			checkSingle(t, randomHits(rng, n), omit, rng.Float64()*10)
		}
	}
}

func TestEncodeBatchMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	checkBatch(t, nil, false, 4, 0.5)                      // a zero-query batch omits results
	checkBatch(t, []segdb.BatchResult{}, true, 4, 0.5)     // likewise
	checkBatch(t, []segdb.BatchResult{{}}, false, 4, 1e-7) // one empty result
	for _, nq := range []int{1, 3, 8, 33} {
		for _, perQuery := range []int{0, 1, 40, 200} {
			for _, omit := range []bool{false, true} {
				for _, par := range []int{1, 2, 4, 7} {
					results := make([]segdb.BatchResult, nq)
					for i := range results {
						results[i].Hits = randomHits(rng, rng.Intn(2*perQuery+1))
						if rng.Intn(4) == 0 {
							results[i].Err = errors.New(nastyErrors[rng.Intn(len(nastyErrors))])
						}
					}
					checkBatch(t, results, omit, par, rng.Float64())
				}
			}
		}
	}
	// Every error string on its own, so each escape class is certainly hit.
	for _, msg := range nastyErrors {
		checkBatch(t, []segdb.BatchResult{{Err: errors.New(msg)}}, false, 1, 1)
	}
}

// TestEncodeRejectsNonFinite: encoding/json refuses NaN and ±Inf, and so
// does the append encoder — on the sequential and the parallel path.
func TestEncodeRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkSingle(t, []segdb.Segment{segdb.NewSegment(1, 0, 0, bad, 0)}, false, 1)
		checkSingle(t, nil, false, bad)
		results := make([]segdb.BatchResult, 8)
		rng := rand.New(rand.NewSource(4))
		for i := range results {
			results[i].Hits = randomHits(rng, 100)
		}
		results[6].Hits[50].B.Y = bad
		checkBatch(t, results, false, 4, 1)
		checkBatch(t, results, true, 4, 1) // omitted hits are not encoded
	}
}

func FuzzQueryResponseEncode(f *testing.F) {
	f.Add(uint64(7), 0.5, -1e-7, 1e21, 5e-324, "err <&>", uint8(3), uint8(9), false, uint8(4), 0.25)
	f.Add(uint64(0), math.Copysign(0, -1), 1e-6, 1e20, 2.0, "", uint8(0), uint8(0), true, uint8(1), 0.0)
	f.Add(uint64(math.MaxUint64), 1.0, 2.0, 3.0, 4.0, " \xff\x01", uint8(200), uint8(2), false, uint8(2), 1e-9)
	f.Fuzz(func(t *testing.T, id uint64, ax, ay, bx, by float64, msg string, nq, perQuery uint8, omit bool, par uint8, elapsed float64) {
		results := make([]segdb.BatchResult, int(nq)%40)
		base := segdb.NewSegment(id, ax, ay, bx, by)
		for i := range results {
			n := (int(perQuery) + i) % 64
			for j := 0; j < n; j++ {
				sg := base
				sg.ID += uint64(j)
				sg.A.X, sg.B.Y = sg.A.X*float64(j+1), sg.B.Y/float64(i+1)
				results[i].Hits = append(results[i].Hits, sg)
			}
			if msg != "" && i%3 == 1 {
				results[i].Err = errors.New(msg)
			}
		}
		checkBatch(t, results, omit, int(par)%9, elapsed)
		if len(results) > 0 {
			checkSingle(t, results[0].Hits, omit, elapsed)
		}
	})
}

func benchResults(nq, perQuery int) []segdb.BatchResult {
	rng := rand.New(rand.NewSource(5))
	results := make([]segdb.BatchResult, nq)
	for i := range results {
		results[i].Hits = make([]segdb.Segment, perQuery)
		for j := range results[i].Hits {
			x := rng.Float64() * 1000
			results[i].Hits[j] = segdb.NewSegment(uint64(i*perQuery+j+1), x, rng.Float64()*1000, x+rng.Float64()*50, rng.Float64()*1000)
		}
	}
	return results
}

// BenchmarkQueryEncode measures the /v1/query response encoding: a single
// query's 100 hits, and a batch of 8 such queries at the default batch
// parallelism.
func BenchmarkQueryEncode(b *testing.B) {
	results := benchResults(8, 100)
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bp := getBuf()
			*bp, _ = appendSingleResponse(*bp, len(results[0].Hits), results[0].Hits, 0.25)
			putBuf(bp)
		}
	})
	b.Run("batch8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bp := getBuf()
			*bp, _ = appendBatchResponse(*bp, results, false, 4, 0.25)
			putBuf(bp)
		}
	})
}
