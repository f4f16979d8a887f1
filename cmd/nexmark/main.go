// Command nexmark runs one NEXMark query on an in-process Impeller
// cluster, streams generated events through it, and prints a sample of
// results plus engine metrics:
//
//	nexmark -query 5 -rate 4000 -duration 5s -protocol progress-marker
package main

import (
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"impeller"
	"impeller/internal/nexmark"
)

func main() {
	var (
		query    = flag.Int("query", 1, "NEXMark query (1-8, extended: 9, 11, 12)")
		rate     = flag.Int("rate", 2000, "input rate, events/s")
		duration = flag.Duration("duration", 5*time.Second, "run duration")
		protoStr = flag.String("protocol", "progress-marker", "progress-marker | kafka-txn | aligned-checkpoint | unsafe")
		parallel = flag.Int("parallelism", 2, "tasks per stage")
		simulate = flag.Bool("simulate", false, "charge calibrated network/storage latencies")
		samples  = flag.Int("samples", 5, "number of output records to print")
	)
	flag.Parse()

	proto, err := parseProtocol(*protoStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nexmark:", err)
		os.Exit(2)
	}

	cluster := impeller.NewCluster(impeller.ClusterConfig{
		Protocol:           proto,
		DefaultParallelism: *parallel,
		IngressWriters:     2,
		SimulateLatency:    *simulate,
	})
	defer cluster.Close()

	topo, err := nexmark.BuildOpts(*query, nexmark.Options{PerUpdateWindows: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nexmark:", err)
		os.Exit(2)
	}
	app, err := cluster.Run(topo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nexmark:", err)
		os.Exit(1)
	}
	defer app.Stop()

	var received atomic.Uint64
	var printed atomic.Int64
	app.Sink(nexmark.OutputStream(*query), false, func(r impeller.Record, producer impeller.TaskID, now time.Time) {
		received.Add(1)
		if int(printed.Add(1)) <= *samples {
			fmt.Printf("sample result: key=%x value=%d bytes latency=%v (from %s)\n",
				trunc(r.Key), len(r.Value), now.Sub(time.UnixMicro(r.EventTime)).Round(time.Millisecond), producer)
		}
	})

	fmt.Printf("running NEXMark Q%d (%s) at %d events/s for %v on protocol %v\n",
		*query, querySemantics(*query), *rate, *duration, proto)

	gen := nexmark.NewGenerator(1)
	deadline := time.Now().Add(*duration)
	perTick := *rate / 100
	if perTick == 0 {
		perTick = 1
	}
	seq := 0
	for time.Now().Before(deadline) {
		for i := 0; i < perTick; i++ {
			now := time.Now().UnixMicro()
			ev := gen.Next(now)
			seq++
			if err := app.Send(nexmark.EventStream, []byte(fmt.Sprint(seq)), ev.Payload, now); err != nil {
				fmt.Fprintln(os.Stderr, "nexmark:", err)
				os.Exit(1)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(500 * time.Millisecond) // drain

	m := app.Metrics()
	fmt.Printf("\nsent %d events, received %d results\n", app.InputCount(), received.Load())
	fmt.Printf("engine: processed=%d emitted=%d markers=%d off-tick=%d appends=%d changeRecords=%d\n",
		m.Processed, m.Emitted, m.Markers, m.CascadeCommits, m.Appends, m.ChangeRecords)
	fmt.Printf("marker bytes: shrunk=%d unshrunk-would-be=%d (%.1f%% saved, paper §3.5)\n",
		m.MarkerBytes, m.MarkerBytesUnshrunk, savings(m.MarkerBytes, m.MarkerBytesUnshrunk))
}

func querySemantics(q int) string {
	for _, info := range nexmark.Queries {
		if info.Number == q {
			return info.Semantics
		}
	}
	for _, info := range nexmark.ExtendedQueries {
		if info.Number == q {
			return info.Semantics
		}
	}
	return "unknown"
}

func parseProtocol(s string) (impeller.Protocol, error) {
	switch s {
	case "progress-marker":
		return impeller.ProgressMarker, nil
	case "kafka-txn":
		return impeller.KafkaTxn, nil
	case "aligned-checkpoint":
		return impeller.AlignedCheckpoint, nil
	case "unsafe":
		return impeller.Unsafe, nil
	default:
		return 0, fmt.Errorf("unknown protocol %q", s)
	}
}

func trunc(b []byte) []byte {
	if len(b) > 16 {
		return b[:16]
	}
	return b
}

func savings(shrunk, unshrunk uint64) float64 {
	if unshrunk == 0 {
		return 0
	}
	return 100 * (1 - float64(shrunk)/float64(unshrunk))
}
