package main

import (
	"fmt"
	"sort"
	"time"
)

// layerMetrics derives the per-layer metrics from the spans of the timed
// window [w0, w1] (recorder time) and the store counters bracketing it.
// A metric whose layer does no work in the workload is reported as 0 and
// printed as n/a.
func layerMetrics(spans []span, w0, w1 int64, rep *loadReport, epoch time.Time, e e2e, c0, c1 counters) []metric {
	in := func(s span) bool { return s.start >= w0 && s.end > 0 && s.end <= w1 }
	childNS := make([]int64, len(spans))
	hasChild := make([]uint16, len(spans)) // bit per child layer
	for _, s := range spans {
		if s.parent >= 0 && s.end > 0 {
			childNS[s.parent] += s.end - s.start
			hasChild[s.parent] |= 1 << s.layer
		}
	}
	// underRead reports whether a span runs on behalf of a read.
	underRead := func(i int32) bool {
		for p := spans[i].parent; p >= 0; p = spans[p].parent {
			switch spans[p].layer {
			case lSync, lShard, lBatch, lIndex:
				return true
			}
		}
		return false
	}
	var (
		dur          [numLayers][]int64
		handlerSelf  []int64
		syncSelf     []int64
		crc          []int64
		handlerByReq = map[int64]int64{}
		readBytes    int64
		shed, reqs   int
		readMisses   int
		walBytes     int64
		acc, written int64
		compacts     [][2]int64 // unix ns
	)
	for i, s := range spans {
		if s.layer == lCompact && s.start >= w0 && s.start <= w1 && s.end > 0 {
			dur[lCompact] = append(dur[lCompact], s.end-s.start)
			e0 := epoch.UnixNano()
			compacts = append(compacts, [2]int64{e0 + s.start, e0 + s.end})
			continue
		}
		if !in(s) {
			continue
		}
		d := s.end - s.start
		dur[s.layer] = append(dur[s.layer], d)
		self := d - childNS[i]
		switch s.layer {
		case lHandler:
			reqs++
			if s.status == 429 || s.status == 503 {
				shed++
			}
			if s.read {
				readBytes += s.bytes
			}
			handlerSelf = append(handlerSelf, self)
			handlerByReq[s.req] = d
		case lSync:
			if hasChild[i]&(1<<lIndex) != 0 {
				syncSelf = append(syncSelf, self)
			}
		case lPager:
			if hasChild[i]&(1<<lFile) != 0 {
				crc = append(crc, self)
			}
			if underRead(int32(i)) {
				readMisses++
			}
		case lWALAppend:
			walBytes += s.bytes
		case lDurable:
			acc += int64(s.accesses)
			written += int64(s.written)
		}
	}
	var netOver, stalled []int64
	for _, s := range rep.Samples {
		if s.Outcome != outOK {
			continue
		}
		if hd, ok := handlerByReq[s.ReqID]; ok {
			netOver = append(netOver, s.Lat-hd)
		}
		if s.Op != opRead {
			a := rep.EpochUnixNano + s.Start
			for _, c := range compacts {
				if a < c[1] && a+s.Lat > c[0] {
					stalled = append(stalled, s.Lat)
					break
				}
			}
		}
	}
	for _, v := range [][]int64{handlerSelf, syncSelf, crc, netOver, stalled} {
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	}
	for l := range dur {
		sort.Slice(dur[l], func(i, j int) bool { return dur[l][i] < dur[l][j] })
	}

	q := float64(e.queries)
	writes := float64(len(e.writes))
	reads := c1.total.Reads - c0.total.Reads
	hits := c1.total.CacheHits - c0.total.CacheHits
	maxShare, shardAcc := 0.0, int64(0)
	for k := range c1.shards {
		shardAcc += c1.shards[k].Reads + c1.shards[k].CacheHits - c0.shards[k].Reads - c0.shards[k].CacheHits
	}
	for k := range c1.shards {
		a := c1.shards[k].Reads + c1.shards[k].CacheHits - c0.shards[k].Reads - c0.shards[k].CacheHits
		if shardAcc > 0 {
			maxShare = max(maxShare, float64(a)/float64(shardAcc))
		}
	}
	indexSpans, indexNote := dur[lIndex], "the segdb.Index below SynchronizedOn"
	if len(indexSpans) == 0 && len(syncSelf) == 0 {
		// DurableIndex builds its SyncIndex internally, so its inner index
		// cannot be wrapped from outside: the read path is timed as one
		// span, lock wait included.
		indexSpans, indexNote = dur[lSync], "SyncIndex and index as one span (DurableIndex wraps its index internally)"
	}
	usP := func(v []int64, p float64) float64 { return us(pct(v, p)) }
	per := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	exactMissPerQ := per(float64(readMisses), q)
	m := []metric{
		{name: "net.overhead_us_p50", unit: "us", value: usP(netOver, .5), na: len(netOver) == 0, note: fmt.Sprintf("client latency minus handler time, n=%d", len(netOver))},
		{name: "client.cpu_us_per_req", unit: "us", value: e.clientCPUPerReq, note: "load generator process rusage"},
		{name: "server.handler_us_p50", unit: "us", value: usP(dur[lHandler], .5), na: len(dur[lHandler]) == 0, note: fmt.Sprintf("n=%d", len(dur[lHandler]))},
		{name: "server.handler_us_p99", unit: "us", value: usP(dur[lHandler], .99), na: len(dur[lHandler]) == 0},
		{name: "server.self_us_p50", unit: "us", value: usP(handlerSelf, .5), na: len(handlerSelf) == 0, note: "handler minus the Index/Updater call"},
		{name: "server.resp_bytes_per_query", unit: "B", value: per(float64(readBytes), q), na: q == 0},
		{name: "server.shed_frac", unit: "ratio", value: per(float64(shed), float64(reqs)), note: fmt.Sprintf("%d of %d responses 429/503", shed, reqs)},
		{name: "syncindex.self_us_p50", unit: "us", value: usP(syncSelf, .5), na: len(syncSelf) == 0, note: "SynchronizedOn minus the index it wraps"},
		{name: "batch.wall_us_p50", unit: "us", value: usP(dur[lBatch], .5), na: len(dur[lBatch]) == 0, note: fmt.Sprintf("QueryBatchContext, n=%d", len(dur[lBatch]))},
		{name: "index.query_us_p50", unit: "us", value: usP(indexSpans, .5), na: len(indexSpans) == 0, note: indexNote},
		{name: "index.query_us_p99", unit: "us", value: usP(indexSpans, .99), na: len(indexSpans) == 0},
		{name: "index.accesses_per_query", unit: "pages", value: per(float64(reads+hits), q), na: q == 0, note: "pool hits + misses per query (store counters; writes and compaction included)"},
		{name: "index.answers_per_query", unit: "count", value: per(float64(e.answers), q), na: q == 0},
		{name: "pager.hit_ratio", unit: "ratio", value: per(float64(hits), float64(reads+hits)), na: reads+hits == 0},
		{name: "pager.misses_per_query", unit: "pages", value: per(float64(len(dur[lPager])), q), na: q == 0, note: "device reads below the pool"},
		{name: "pager.miss_us_p50", unit: "us", value: usP(dur[lPager], .5), na: len(dur[lPager]) == 0, note: fmt.Sprintf("n=%d", len(dur[lPager]))},
		{name: "pager.crc_us_p50", unit: "us", value: usP(crc, .5), na: len(crc) == 0, note: "checksum-device read minus the file read"},
		{name: "pager.attr_inflation", unit: "ratio", value: per(per(float64(c1.windowed-c0.windowed), q), exactMissPerQ), na: exactMissPerQ == 0,
			note: fmt.Sprintf("server's windowed pages/query over exact read misses/query %.4g", exactMissPerQ)},
		{name: "shard.max_share", unit: "ratio", value: maxShare, na: len(c1.shards) == 0, note: "busiest slab's share of page accesses"},
		{name: "durable.write_us_p50", unit: "us", value: usP(dur[lDurable], .5), na: len(dur[lDurable]) == 0, note: fmt.Sprintf("n=%d", len(dur[lDurable]))},
		{name: "durable.write_us_p99", unit: "us", value: usP(dur[lDurable], .99), na: len(dur[lDurable]) == 0},
		{name: "durable.accesses_per_write", unit: "pages", value: per(float64(acc), float64(len(dur[lDurable]))), na: len(dur[lDurable]) == 0, note: "UpdateStats pages read + pool hits"},
		{name: "durable.pages_written_per_write", unit: "pages", value: per(float64(written), float64(len(dur[lDurable]))), na: len(dur[lDurable]) == 0},
		{name: "wal.append_us_p50", unit: "us", value: usP(dur[lWALAppend], .5), na: len(dur[lWALAppend]) == 0},
		{name: "wal.fsync_us_p50", unit: "us", value: usP(dur[lWALSync], .5), na: len(dur[lWALSync]) == 0},
		{name: "wal.fsyncs_per_write", unit: "ratio", value: per(float64(len(dur[lWALSync])), writes), na: writes == 0},
		{name: "wal.bytes_per_write", unit: "B", value: per(float64(walBytes), writes), na: writes == 0},
		{name: "compact.count", unit: "count", value: float64(len(dur[lCompact])), na: len(dur[lCompact]) == 0, note: "governor compactions started in the timed phase"},
		{name: "compact.ms_p50", unit: "ms", value: ms(pct(dur[lCompact], .5)), na: len(dur[lCompact]) == 0},
		{name: "compact.stall_write_p99_ms", unit: "ms", value: ms(pct(stalled, .99)), na: len(stalled) == 0, note: fmt.Sprintf("writes overlapping a compaction, n=%d", len(stalled))},
	}
	for i := range m {
		if m[i].na {
			m[i].value = 0
		}
	}
	return m
}
