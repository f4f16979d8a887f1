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

// Table2Config configures the log-latency experiment.
type Table2Config struct {
	// Rates are the append rates to measure (paper: 10, 50, 100 aps).
	Rates []int
	// Duration per rate point.
	Duration time.Duration
	// RecordSize is the appended payload size (paper: 16 KiB).
	RecordSize int
	// Seed fixes the latency randomness.
	Seed uint64
}

func (c Table2Config) withDefaults() Table2Config {
	if len(c.Rates) == 0 {
		c.Rates = []int{10, 50, 100}
	}
	if c.Duration <= 0 {
		c.Duration = 3 * time.Second
	}
	if c.RecordSize <= 0 {
		c.RecordSize = 16 << 10
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

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

// RunTable2 measures both logs at every rate.
func RunTable2(cfg Table2Config) ([]Table2Row, error) {
	cfg = cfg.withDefaults()
	rows := make([]Table2Row, 0, len(cfg.Rates))
	for _, rate := range cfg.Rates {
		boki, bokiStats, err := measureBoki(cfg, rate)
		if err != nil {
			return nil, err
		}
		kafka, err := measureKafka(cfg, rate)
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
func measureBoki(cfg Table2Config, rate int) (*Hist, sharedlog.Stats, error) {
	r := sim.NewRand(cfg.Seed)
	log := sharedlog.Open(sharedlog.Config{
		NumShards:     4,
		Replication:   3,
		AppendLatency: sim.DefaultBokiLatency(r.Fork()),
		ReadLatency:   sim.DefaultBokiLatency(r.Fork()),
	})
	defer log.Close()

	hist := &Hist{}
	payload := make([]byte, cfg.RecordSize)
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
	deadline := time.Now().Add(cfg.Duration)
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
func measureKafka(cfg Table2Config, rate int) (*Hist, error) {
	r := sim.NewRand(cfg.Seed + 1)
	c := kafkalog.NewCluster(kafkalog.Config{
		ProduceLatency: sim.DefaultKafkaLatency(r.Fork()),
		FetchLatency:   sim.DefaultKafkaLatency(r.Fork()),
	})
	defer c.Close()
	if err := c.CreateTopic("t2", 1); err != nil {
		return nil, err
	}

	hist := &Hist{}
	payload := make([]byte, cfg.RecordSize)
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
	deadline := time.Now().Add(cfg.Duration)
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
