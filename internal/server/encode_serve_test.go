package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"testing"

	"segdb"
	"segdb/internal/server"
	"segdb/internal/workload"
)

// TestConcurrentBatchEncodeDeadline drives full-hit batches through the
// parallel response encoder from several clients at once, half of them
// with deadlines short enough to cancel mid-batch. Every 200 must carry
// exactly the brute-force answers in bytes encoding/json would have
// written; every other response must be a 503 with a JSON error. Run it
// under -race: chunk buffers are shared between encoder goroutines and
// recycled through a pool.
func TestConcurrentBatchEncodeDeadline(t *testing.T) {
	hs, _, segs := testServer(t, server.Config{MaxInflight: 64})
	box := workload.BBox(segs)

	const clients, rounds = 4, 6
	var wg sync.WaitGroup
	var mu sync.Mutex
	status := map[int]int{}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for r := 0; r < rounds; r++ {
				n, timeout := 48, 0
				if r%2 == 1 {
					n, timeout = 1024, 1 // far more work than 1 ms allows
				}
				qs := make([]segdb.Query, n)
				req := server.QueryRequest{Parallelism: 4, TimeoutMS: timeout}
				for i := range qs {
					qs[i] = segdb.VLine(box.MinX + rng.Float64()*(box.MaxX-box.MinX))
					req.Queries = append(req.Queries, server.QuerySpec{X: qs[i].X})
				}
				code, err := checkBatchResponse(hs.URL, req, qs, segs)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				status[code]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if status[http.StatusOK] < clients*rounds/2 {
		t.Fatalf("statuses %v: every batch without a deadline must succeed", status)
	}
	t.Logf("statuses %v", status)
}

// checkBatchResponse posts one batch and verifies the response: a 200 is
// byte-identical to encoding/json's rendering of its decoded form and
// holds the brute-force answers; anything else must be a JSON 503.
func checkBatchResponse(url string, req server.QueryRequest, qs []segdb.Query, segs []segdb.Segment) (int, error) {
	body, _ := json.Marshal(&req)
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		if resp.StatusCode != http.StatusServiceUnavailable || json.Unmarshal(raw, &e) != nil || e["error"] == "" {
			return 0, fmt.Errorf("HTTP %d: %q", resp.StatusCode, raw)
		}
		return resp.StatusCode, nil
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		return 0, fmt.Errorf("decode: %v", err)
	}
	var re bytes.Buffer
	json.NewEncoder(&re).Encode(qr)
	if !bytes.Equal(raw, re.Bytes()) {
		return 0, fmt.Errorf("body differs from encoding/json\n got %q\nwant %q", raw, re.Bytes())
	}
	if len(qr.Results) != len(qs) {
		return 0, fmt.Errorf("%d results for %d queries", len(qr.Results), len(qs))
	}
	for i, q := range qs {
		want := segdb.FilterHits(q, segs)
		got := qr.Results[i]
		if got.Error != "" || got.Count != len(want) || len(got.Hits) != len(want) {
			return 0, fmt.Errorf("query %d: count %d, %d hits, error %q; want %d", i, got.Count, len(got.Hits), got.Error, len(want))
		}
		ids := make([]uint64, len(got.Hits))
		for j, h := range got.Hits {
			ids[j] = h.ID
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		sort.Slice(want, func(a, b int) bool { return want[a].ID < want[b].ID })
		for j := range want {
			if ids[j] != want[j].ID {
				return 0, fmt.Errorf("query %d: hit ids differ from brute force", i)
			}
		}
	}
	return http.StatusOK, nil
}
