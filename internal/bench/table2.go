package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"impeller/internal/kafkalog"
	"impeller/internal/sharedlog"
	"impeller/internal/sim"
)

// Table 2 (paper §5.2): p50/p99 latency between appending a 16 KiB
// record and consuming it from another node, for Impeller's log (Boki)
// and Kafka, at 10/50/100 appends per second, batching disabled.

// The paper's record size, and the seed of the latency randomness.
const (
	table2RecordSize = 16 << 10
	table2Seed       = 7
)

// Table2Row is one measured rate point.
type Table2Row struct {
	Rate                     int
	BokiP50, BokiP99         time.Duration
	KafkaP50, KafkaP99       time.Duration
	SlowdownP50, SlowdownP99 float64
	// BokiLog snapshots the shared log's counters for the Boki side
	// (appends, reads, wakeups) — each record should wake its one
	// blocked consumer exactly once.
	BokiLog sharedlog.Stats
}

// RunTable2 measures both logs for p.Duration (default 3 s) at each of
// p.Rates (default: the paper's 10, 50 and 100 appends per second).
func RunTable2(p Params, _ io.Writer) ([]Table2Row, error) {
	if len(p.Rates) == 0 {
		p.Rates = []int{10, 50, 100}
	}
	p = p.or(0, 0, 3*time.Second)
	rows := make([]Table2Row, 0, len(p.Rates))
	for _, rate := range p.Rates {
		boki, bokiStats, err := measureBoki(rate, p.Duration)
		if err != nil {
			return nil, err
		}
		kafka, err := measureKafka(rate, p.Duration)
		if err != nil {
			return nil, err
		}
		row := Table2Row{
			Rate:     rate,
			BokiP50:  boki.Percentile(50),
			BokiP99:  boki.Percentile(99),
			KafkaP50: kafka.Percentile(50),
			KafkaP99: kafka.Percentile(99),
			BokiLog:  bokiStats,
		}
		row.SlowdownP50 = float64(row.BokiP50) / float64(row.KafkaP50)
		row.SlowdownP99 = float64(row.BokiP99) / float64(row.KafkaP99)
		rows = append(rows, row)
	}
	return rows, nil
}

// measureBoki appends to the shared log and consumes via a tag read.
func measureBoki(rate int, duration time.Duration) (*Hist, sharedlog.Stats, error) {
	r := sim.NewRand(table2Seed)
	log := sharedlog.Open(sharedlog.Config{
		NumShards:     4,
		Replication:   3,
		AppendLatency: sim.DefaultBokiLatency(r.Fork()),
		ReadLatency:   sim.DefaultBokiLatency(r.Fork()),
	})
	defer log.Close()

	hist := &Hist{}
	payload := make([]byte, table2RecordSize)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Consumer on "another node": one blocking read round trip per
	// record (a cursor batch of one, readahead off), as the table
	// measures a single produce-to-consume exchange.
	done := make(chan struct{})
	starts := make(chan time.Time, 1024)
	go func() {
		defer close(done)
		cur := log.OpenCursorOpts([]sharedlog.Tag{"t2"}, 0, sharedlog.CursorOptions{Prefetch: -1})
		for {
			recs, err := cur.NextBatchBlocking(ctx, 1)
			if err != nil || len(recs) == 0 {
				return
			}
			start, ok := <-starts
			if !ok {
				return
			}
			hist.Record(time.Since(start))
		}
	}()

	interval := time.Second / time.Duration(rate)
	deadline := time.Now().Add(duration)
	for time.Now().Before(deadline) {
		start := time.Now()
		starts <- start
		if _, err := log.Append([]sharedlog.Tag{"t2"}, payload); err != nil {
			return nil, sharedlog.Stats{}, err
		}
		if wait := interval - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
	}
	close(starts)
	cancel()
	<-done
	return hist, log.Stats(), nil
}

// measureKafka produces to a single-partition topic and fetches it.
func measureKafka(rate int, duration time.Duration) (*Hist, error) {
	r := sim.NewRand(table2Seed + 1)
	c := kafkalog.NewCluster(kafkalog.Config{
		ProduceLatency: sim.DefaultKafkaLatency(r.Fork()),
		FetchLatency:   sim.DefaultKafkaLatency(r.Fork()),
	})
	defer c.Close()
	if err := c.CreateTopic("t2", 1); err != nil {
		return nil, err
	}

	hist := &Hist{}
	payload := make([]byte, table2RecordSize)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan struct{})
	starts := make(chan time.Time, 1024)
	go func() {
		defer close(done)
		var off kafkalog.Offset
		for {
			m, err := c.FetchBlocking(ctx, "t2", 0, off, kafkalog.ReadUncommitted)
			if err != nil || m == nil {
				return
			}
			off = m.Offset + 1
			start, ok := <-starts
			if !ok {
				return
			}
			hist.Record(time.Since(start))
		}
	}()

	interval := time.Second / time.Duration(rate)
	deadline := time.Now().Add(duration)
	for time.Now().Before(deadline) {
		start := time.Now()
		starts <- start
		if _, err := c.Produce("t2", 0, nil, payload); err != nil {
			return nil, err
		}
		if wait := interval - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
	}
	close(starts)
	cancel()
	<-done
	return hist, nil
}

// PrintTable2 renders rows in the paper's format.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2: produce-to-consume latency, 16 KiB records")
	fmt.Fprintf(w, "%-8s | %-24s | %-24s\n", "", "Impeller's log (Boki)", "Kafka")
	fmt.Fprintf(w, "%-8s | %-11s %-11s | %-11s %-11s\n", "rate", "p50", "p99", "p50", "p99")
	for _, r := range rows {
		fmt.Fprintf(w, "%-4d aps | (%.2fx) %-9v (%.2fx) %-9v | %-11v %-11v\n",
			r.Rate,
			r.SlowdownP50, r.BokiP50.Round(time.Microsecond),
			r.SlowdownP99, r.BokiP99.Round(time.Microsecond),
			r.KafkaP50.Round(time.Microsecond), r.KafkaP99.Round(time.Microsecond))
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-4d aps | log appends=%d reads=%d wakeups=%d useful=%d\n",
			r.Rate, r.BokiLog.Appends, logReads(r.BokiLog),
			r.BokiLog.ReaderWakeups, r.BokiLog.UsefulWakeups)
	}
}
