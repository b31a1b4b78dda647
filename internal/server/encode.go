package server

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"segdb"
)

// The /v1/query response is built by appending into a pooled buffer
// instead of by encoding/json's reflection. The bytes are exactly those
// json.NewEncoder(w).Encode(QueryResponse{...}) produces — field order,
// omitempty, float formatting, HTML-safe string escaping and the trailing
// newline — so QueryResponse remains the documented type clients decode
// into. encode_test.go holds the differential test and fuzz target that
// pin the equivalence.

// errNonFinite mirrors encoding/json's refusal of NaN and ±Inf. Stored
// segments are finite (the write edge rejects anything else), so the
// server never meets it in practice.
var errNonFinite = errors.New("server: response holds a non-finite float")

// maxPooledBuf bounds the response buffers kept for reuse: an outsized
// batch response is left to the GC rather than pinned in the pool.
const maxPooledBuf = 1 << 20

var respBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func getBuf() *[]byte { return respBufs.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBuf {
		return
	}
	*bp = (*bp)[:0]
	respBufs.Put(bp)
}

// appendFloat appends f formatted as encoding/json formats a float64: the
// shortest representation, in 'e' notation below 1e-6 and from 1e21 on,
// with a one-digit negative exponent written e-7 rather than e-07.
func appendFloat(b []byte, f float64) []byte {
	fmt := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		fmt = 'e'
	}
	b = strconv.AppendFloat(b, f, fmt, -1, 64)
	if fmt == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's default
// HTML-safe escaping: <, > and & become \u003c, \u003e and \u0026,
// control bytes take the short escapes or \u00XX, invalid UTF-8 becomes
// \ufffd, and U+2028 and U+2029 are escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendResultFields appends the members of one QueryResult — count, then
// hits and error when non-empty — without the enclosing braces: the
// single form shares its object with elapsed_ms. hits is nil when the
// request asked for counts only.
func appendResultFields(b []byte, count int, hits []segdb.Segment, errMsg string) ([]byte, error) {
	b = append(b, `"count":`...)
	b = strconv.AppendInt(b, int64(count), 10)
	if len(hits) > 0 {
		b = append(b, `,"hits":[`...)
		for i, sg := range hits {
			if !finite(sg.A.X) || !finite(sg.A.Y) || !finite(sg.B.X) || !finite(sg.B.Y) {
				return b, errNonFinite
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"id":`...)
			b = strconv.AppendUint(b, sg.ID, 10)
			b = append(b, `,"ax":`...)
			b = appendFloat(b, sg.A.X)
			b = append(b, `,"ay":`...)
			b = appendFloat(b, sg.A.Y)
			b = append(b, `,"bx":`...)
			b = appendFloat(b, sg.B.X)
			b = append(b, `,"by":`...)
			b = appendFloat(b, sg.B.Y)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if errMsg != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, errMsg)
	}
	return b, nil
}

// appendTail closes a response object with elapsed_ms and the newline
// encoding/json's Encoder writes after every value.
func appendTail(b []byte, elapsedMS float64) ([]byte, error) {
	if !finite(elapsedMS) {
		return b, errNonFinite
	}
	b = append(b, `,"elapsed_ms":`...)
	b = appendFloat(b, elapsedMS)
	return append(b, "}\n"...), nil
}

// appendSingleResponse appends the single-form response.
func appendSingleResponse(b []byte, count int, hits []segdb.Segment, elapsedMS float64) ([]byte, error) {
	b = append(b, '{')
	b, err := appendResultFields(b, count, hits, "")
	if err != nil {
		return b, err
	}
	return appendTail(b, elapsedMS)
}

// appendBatchResults appends results as the comma-separated objects of a
// JSON array, leaving out each query's hits when omitHits is set.
func appendBatchResults(b []byte, results []segdb.BatchResult, omitHits bool) ([]byte, error) {
	for i := range results {
		r := &results[i]
		if i > 0 {
			b = append(b, ',')
		}
		hits, errMsg := r.Hits, ""
		if omitHits {
			hits = nil
		}
		if r.Err != nil {
			errMsg = r.Err.Error()
		}
		b = append(b, '{')
		var err error
		if b, err = appendResultFields(b, len(r.Hits), hits, errMsg); err != nil {
			return b, err
		}
		b = append(b, '}')
	}
	return b, nil
}

// appendBatchResponse appends the batch-form response, encoding the
// results on up to par goroutines.
func appendBatchResponse(b []byte, results []segdb.BatchResult, omitHits bool, par int, elapsedMS float64) ([]byte, error) {
	b = append(b, `{"count":0`...)
	if len(results) > 0 {
		b = append(b, `,"results":[`...)
		var err error
		if b, err = appendBatchParallel(b, results, omitHits, par); err != nil {
			return b, err
		}
		b = append(b, ']')
	}
	return appendTail(b, elapsedMS)
}

// appendBatchParallel appends the results array's members. With hits to
// report, the results are cut into up to par contiguous chunks of about
// equal hit count; the first is encoded on the calling goroutine straight
// into b, the rest concurrently into pooled buffers, and the chunks are
// joined in order — the batch's own parallelism, spent on reporting.
func appendBatchParallel(b []byte, results []segdb.BatchResult, omitHits bool, par int) ([]byte, error) {
	total := 0
	if !omitHits {
		for i := range results {
			total += len(results[i].Hits)
		}
	}
	if par > len(results) {
		par = len(results)
	}
	if par <= 1 || total == 0 {
		return appendBatchResults(b, results, omitHits)
	}
	// Cut points: chunk k ends at the first result whose running hit count
	// (plus one per result, for its count field) reaches k/par of the total.
	cuts := make([]int, 0, par+1)
	cuts = append(cuts, 0)
	weight, sum := total+len(results), 0
	for i := range results {
		sum += len(results[i].Hits) + 1
		if sum*par >= weight*len(cuts) && len(cuts) < par {
			cuts = append(cuts, i+1)
		}
	}
	cuts = append(cuts, len(results))

	chunks := make([]*[]byte, len(cuts)-2)
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for k := range chunks {
		lo, hi := cuts[k+1], cuts[k+2]
		if lo == hi {
			continue
		}
		bp := getBuf()
		chunks[k] = bp
		wg.Add(1)
		go func() {
			defer wg.Done()
			*bp, errs[k] = appendBatchResults(*bp, results[lo:hi], omitHits)
		}()
	}
	b, err := appendBatchResults(b, results[:cuts[1]], omitHits)
	wg.Wait()
	for k, bp := range chunks {
		if bp == nil {
			continue
		}
		if err == nil {
			err = errs[k]
		}
		b = append(b, ',')
		b = append(b, *bp...)
		putBuf(bp)
	}
	return b, err
}

// writeBody sends an encoded JSON body with an explicit Content-Length.
func writeBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}
