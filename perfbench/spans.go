package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// Layers of the traced run: one span per call across a layer boundary,
// recorded by the wrappers in traced.go.
const (
	lHandler   uint8 = iota // server: srv.Handler(), parse to encode
	lSync                   // syncindex: server.Index over a SyncIndex
	lShard                  // shard: server.Index over a shard.Store
	lBatch                  // batch: QueryBatchContext on the served index
	lIndex                  // index: the segdb.Index below SynchronizedOn
	lPager                  // pager: device reads the pool's misses fall through to
	lFile                   // pager: raw FileDevice reads below the checksum device
	lDurable                // durable: Updater insert/delete
	lWALAppend              // wal: log file WriteAt
	lWALSync                // wal: log file Sync
	lCompact                // compact: a governor-fired CompactUnit.Compact
	numLayers
)

var layerNames = [numLayers]string{"server.handler", "syncindex", "shard", "batch", "index",
	"pager.read", "pager.file_read", "durable", "wal.append", "wal.fsync", "compact"}

// span is one call across a layer boundary. Times are nanoseconds since
// the recorder's epoch; parent is the enclosing span's index (-1 for a
// root) and req the request it serves (the client's X-Bench-Req, 0 for
// background work).
type span struct {
	start, end int64
	req        int64
	parent     int32
	layer      uint8
	read       bool  // handler: a /v1/query request
	status     int32 // handler: HTTP status
	bytes      int64 // handler: response body bytes; wal.append: bytes written
	accesses   int32 // durable: UpdateStats pool hits + pages read
	written    int32 // durable: UpdateStats pages written
}

// recorder keeps every span in memory until the run ends. Spans opened on
// a goroutine nest under the goroutine's innermost open span, so layers
// whose calls carry no context (the index below SynchronizedOn, devices,
// the WAL file) still get their parent.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	open  map[uintptr][]int32
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<20), open: map[uintptr][]int32{}}
}

func (r *recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

// token ends a span.
type token struct {
	idx int32
	g   uintptr
}

// begin opens a span on the calling goroutine. A span with a parent
// serves the parent's request; req names the request of a root span.
func (r *recorder) begin(layer uint8, req int64) token {
	g, t := curg(), r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := int32(-1)
	st := r.open[g]
	if n := len(st); n > 0 {
		parent = st[n-1]
		req = r.spans[parent].req
	}
	idx := int32(len(r.spans))
	r.spans = append(r.spans, span{start: t, parent: parent, req: req, layer: layer})
	r.open[g] = append(st, idx)
	return token{idx, g}
}

// end closes the span and lets set fill its layer-specific fields.
func (r *recorder) end(t token, set func(*span)) {
	e := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[t.idx]
	s.end = e
	if set != nil {
		set(s)
	}
	st := r.open[t.g]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == t.idx {
			st = append(st[:i], st[i+1:]...)
			break
		}
	}
	if len(st) == 0 {
		delete(r.open, t.g)
	} else {
		r.open[t.g] = st
	}
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// dump writes every span as one tab-separated line: layer, start and end
// in ns since the recorder's epoch (epoch given in the header as Unix
// ns), parent index, request id.
func dump(path string, epoch time.Time, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "# epoch_unix_ns=%d\n# index\tlayer\tstart_ns\tend_ns\tparent\treq\n", epoch.UnixNano())
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, layerNames[s.layer], s.start, s.end, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
