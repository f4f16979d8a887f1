package main

import (
	"runtime"
	"sync"
	"time"
)

// Layer drives time a fixed loop of calls into one layer's public
// functions (the calls themselves are in sut.go) and count its
// allocations. They measure each layer from outside and alone; the
// counters of a traced workload run (metrics.go) measure it at work.

const driveChunks = 8 // spans per drive; a drive reports their median

// chunked runs body(c) for each of driveChunks chunks, every chunk a
// span, and returns each chunk's duration in ns and the allocations made
// over all of them.
func chunked(tr *tracer, name string, body func(c int)) (ns []float64, mallocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ns = make([]float64, driveChunks)
	for c := range ns {
		t0 := time.Now()
		body(c)
		t1 := time.Now()
		tr.drive(name, c, t0, t1)
		ns[c] = float64(t1.Sub(t0))
	}
	runtime.ReadMemStats(&m1)
	return ns, float64(m1.Mallocs - m0.Mallocs)
}

// perRecord turns chunk durations into the median ns per record.
func perRecord(ns []float64, recsPerChunk int) float64 {
	return median(ns) / float64(recsPerChunk)
}

// timed runs fn rounds times, chunked, and returns the median ns per
// record and the allocations per record.
func timed(tr *tracer, name string, rounds, recs int, fn func()) (ns, allocs float64) {
	fn() // first-call costs are not the layer's steady state
	per := rounds / driveChunks
	chunks, mallocs := chunked(tr, name, func(int) {
		for i := 0; i < per; i++ {
			fn()
		}
	})
	return perRecord(chunks, per*recs), mallocs / float64(per*driveChunks*recs)
}

// runDrives runs every layer drive and returns its metrics.
func runDrives(tr *tracer, seed uint64) ([]metric, error) {
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name, unit, v}) }

	// wire: 64-bid batch into a pooled buffer, and back.
	enc, n := driveWireEncode(seed)
	ns, allocs := timed(tr, "wire.encode", 16000, n, enc)
	add("wire.encode_ns_per_rec", "ns", ns)
	add("wire.encode_allocs_per_rec", "count", allocs)
	dec, n := driveWireDecode(seed)
	ns, allocs = timed(tr, "wire.decode", 4000, n, dec)
	add("wire.decode_ns_per_rec", "ns", ns)
	add("wire.decode_allocs_per_rec", "count", allocs)

	// ingress: buffer 64 records, then group-commit them.
	ing, err := newIngressDrive(seed)
	if err != nil {
		return nil, err
	}
	const ingressRounds = 500 // per chunk
	ing.send()
	ing.flush()
	inSend := make([]float64, driveChunks)
	total, mallocs := chunked(tr, "ingress.send+flush", func(c int) {
		for i := 0; i < ingressRounds; i++ {
			t0 := time.Now()
			ing.send()
			inSend[c] += float64(time.Since(t0))
			ing.flush()
		}
	})
	ing.close()
	inFlush := make([]float64, driveChunks)
	for c := range total {
		inFlush[c] = total[c] - inSend[c]
	}
	add("ingress.send_ns_per_rec", "ns", perRecord(inSend, ingressRounds*driveBatch))
	add("ingress.flush_ns_per_rec", "ns", perRecord(inFlush, ingressRounds*driveBatch))
	add("ingress.allocs_per_rec", "count", mallocs/(driveChunks*ingressRounds*driveBatch))

	// log: immediate-mode group commit, then the cursor over what it
	// wrote — warm (the tail of a hot tag) and cold (replay from 0).
	lg := newLogDrive(0, 0)
	ns, allocs = timed(tr, "log.append", 8000, driveBatch, lg.appendBatch)
	add("log.append_ns_per_rec", "ns", ns)
	add("log.append_allocs_per_rec", "count", allocs)
	next := lg.warmCursor()
	ns, allocs = timed(tr, "cursor.next", 4000, driveBatch, func() {
		if next() == 0 {
			next = lg.warmCursor()
		}
	})
	add("cursor.next_ns_per_rec", "ns", ns)
	add("cursor.allocs_per_rec", "count", allocs)
	t0 := time.Now()
	replayed := lg.replay()
	t1 := time.Now()
	tr.drive("cursor.replay", 0, t0, t1)
	lg.close()
	add("cursor.replay_recs_per_s", "1/s", float64(replayed)/t1.Sub(t0).Seconds())

	// ordering: append to ack through 1 ms cuts on 2 sequencer shards,
	// from 8 concurrent appenders.
	ord := newLogDrive(time.Millisecond, 2)
	var ack hist
	var wg sync.WaitGroup
	t0 = time.Now()
	for a := 0; a < 8; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				s := time.Now()
				ord.appendBatch()
				ack.record(time.Since(s))
			}
		}()
	}
	wg.Wait()
	tr.drive("ordering.ack", 0, t0, time.Now())
	ord.close()
	p50, _ := ack.percentile(50)
	p99, _ := ack.percentile(99)
	add("ordering.ack_p50_us", "us", float64(p50)/1e3)
	add("ordering.ack_p99_us", "us", float64(p99)/1e3)

	// wal: frame + append + sync of 4 KiB payloads.
	frame, size := driveWALFrame()
	ns, _ = timed(tr, "wal.frame", 4000, size, frame)
	add("wal.frame_ns_per_kb", "ns", ns*1024)

	// kvstore: one 64 KiB snapshot, written synchronously.
	put, closeKV := driveKVPut()
	ns, _ = timed(tr, "kvstore.put", 64, 1, put)
	closeKV()
	add("kvstore.put_us", "us", ns/1e3)

	// op: the workloads' own operator shapes over generated events.
	in := newInput(seed, 1, 100_000, 60_000)
	for _, shape := range []string{"map", "window", "join", "count"} {
		d, err := newOpDrive(shape)
		if err != nil {
			return nil, err
		}
		data := d.prepare(in, 0, in.n)
		// One pass over the data: the operators are stateful, so a second
		// pass would not repeat the first.
		per := len(data) / driveChunks
		chunks, mallocs := chunked(tr, "op."+shape, func(c int) { d.process(data[c*per : (c+1)*per]) })
		add("op."+shape+"_ns_per_rec", "ns", perRecord(chunks, per))
		add("op."+shape+"_allocs_per_rec", "count", mallocs/float64(per*driveChunks))
	}

	// state: a 100 k-key store.
	st := newStateDrive(100_000)
	ns, _ = timed(tr, "state.put", driveChunks, len(st.keys), st.put)
	add("state.put_ns", "ns", ns)
	var snap []byte
	ns, _ = timed(tr, "state.snapshot", driveChunks, 1, func() { snap = st.snapshot() })
	add("state.snapshot_mb_per_s", "MB/s", float64(len(snap))/(1<<20)/(ns/1e9))
	ns, _ = timed(tr, "state.restore", driveChunks, 1, func() { st.restore(snap) })
	add("state.restore_mb_per_s", "MB/s", float64(len(snap))/(1<<20)/(ns/1e9))
	return out, nil
}

// traceMetrics is what only a traced run yields: where a sampled event's
// time went, what sampling cost, and recovery of the WAL the run wrote.
func traceMetrics(lat *latencyStats, spans []span, walMBPerS float64) []metric {
	med, n := spanMedians(spans)
	overhead := 0.0
	if lat.cpuUnsampled > 0 {
		overhead = float64(lat.cpuSampled)/float64(lat.cpuUnsampled) - 1
	}
	return []metric{
		{"wal.recover_mb_per_s", "MB/s", walMBPerS},
		{"commit.gate_wait_p50_ms", "ms", med["commit_egress"]},
		{"driver.span_send_p50_ms", "ms", med["send"]},
		{"driver.span_pipeline_p50_ms", "ms", med["pipeline"]},
		{"driver.span_event_p50_ms", "ms", med["event"]},
		{"driver.traced_events", "count", float64(n["event"])},
		{"driver.trace_overhead_frac", "frac", overhead},
	}
}
