package core

import "fmt"

// Datum is one application record flowing through operators: a key, an
// opaque value, and the event time the record logically occurred at.
//
// A Datum handed to Process carries read-only views: Key and Value
// alias the immutable log record the task read it from (DecodeBatch).
// A processor must not write through them; it may keep them, emit them
// unchanged, or build new slices (append on a view reallocates). The
// state store copies what it is given.
type Datum struct {
	Key, Value []byte
	// EventTime is in microseconds since the Unix epoch.
	EventTime int64
}

// Emit forwards a datum to logical output port out of the stage. Ports
// map 1:1 onto the stage's output streams.
type Emit func(out int, d Datum)

// ProcContext gives a processor access to its task's environment.
type ProcContext interface {
	// Store returns the task's state store (nil for stateless stages).
	Store() *StateStore
	// TaskID identifies the executing task.
	TaskID() TaskID
	// Substream is the task's substream index within its stage.
	Substream() int
	// Charge reports n units of bulk internal work done inside a single
	// Process call (a join scanning its buffers, a window firing many
	// panes at once). Cooperative processors call it so the tasklet
	// engine can account the work against its step budget and yield at
	// the next batch boundary; the goroutine engine's budget never runs
	// out.
	Charge(n int)
}

// Processor is the per-task compute of a stage: a sequence of operators
// compiled into one unit (paper §2.1 — data between operators in a
// stage is pipelined, so a fused processor is the natural execution
// form). A fresh Processor is built for every task instance; stateful
// processors find their state in ctx.Store(), reconstructed by recovery
// before Open is called.
type Processor interface {
	// Open prepares the processor; called once before any Process.
	Open(ctx ProcContext) error
	// Process handles one record arriving on an input port.
	Process(port int, d Datum, emit Emit) error
}

// ProcessorFunc adapts a function to Processor for stateless logic.
type ProcessorFunc func(port int, d Datum, emit Emit) error

// Open implements Processor.
func (f ProcessorFunc) Open(ProcContext) error { return nil }

// Process implements Processor.
func (f ProcessorFunc) Process(port int, d Datum, emit Emit) error { return f(port, d, emit) }

// --- Stateless operators (paper §4: scan, stream/table filter, map) ---

// Map transforms each record; fn may change key, value, and event time.
// A nil result drops the record (map+filter fusion).
func Map(fn func(d Datum) *Datum) Processor {
	return ProcessorFunc(func(_ int, d Datum, emit Emit) error {
		if out := fn(d); out != nil {
			emit(0, *out)
		}
		return nil
	})
}

// Filter keeps records satisfying pred.
func Filter(pred func(d Datum) bool) Processor {
	return ProcessorFunc(func(_ int, d Datum, emit Emit) error {
		if pred(d) {
			emit(0, d)
		}
		return nil
	})
}

// FlatMap expands each record into zero or more records.
func FlatMap(fn func(d Datum) []Datum) Processor {
	return ProcessorFunc(func(_ int, d Datum, emit Emit) error {
		for _, out := range fn(d) {
			emit(0, out)
		}
		return nil
	})
}

// Branch routes each record to the output port of the first matching
// predicate, dropping records that match none (NEXMark queries use
// branch to split the composite event stream into bids, auctions, and
// persons).
func Branch(preds ...func(d Datum) bool) Processor {
	return ProcessorFunc(func(_ int, d Datum, emit Emit) error {
		for i, p := range preds {
			if p(d) {
				emit(i, d)
				return nil
			}
		}
		return nil
	})
}

// SelectKey re-keys each record; the repartition between stages then
// groups records by the new key (the "groupby" boundary of §2.1).
func SelectKey(fn func(d Datum) []byte) Processor {
	return ProcessorFunc(func(_ int, d Datum, emit Emit) error {
		d.Key = fn(d)
		emit(0, d)
		return nil
	})
}

// chain composes processors sequentially: each element's port-0 output
// feeds the next element's port 0; the final element's emissions leave
// the chain. Multi-output processors (Branch) may only appear last.
type chain struct {
	procs []Processor
	// links[i] is the Emit procs[i] writes to: it runs procs[i+1]. The
	// links are built once, in Chain, so a record passing through the
	// chain allocates no closure; the last link forwards to out.
	links []Emit
	// out is the Emit of the Process call in progress.
	out Emit
}

// Chain fuses processors into one (operator pipelining within a stage).
func Chain(procs ...Processor) Processor {
	if len(procs) == 1 {
		return procs[0]
	}
	c := &chain{procs: procs, links: make([]Emit, len(procs)-1)}
	for i := range c.links {
		c.links[i] = func(_ int, d Datum) {
			emit := c.out
			if i+1 < len(c.links) {
				emit = c.links[i+1]
			}
			// Errors inside fused downstream operators surface via panic
			// to keep Emit's signature simple; the task runtime recovers
			// them.
			if err := c.procs[i+1].Process(0, d, emit); err != nil {
				panic(chainError{err})
			}
		}
	}
	return c
}

// Open implements Processor.
func (c *chain) Open(ctx ProcContext) error {
	for i, p := range c.procs {
		if err := p.Open(ctx); err != nil {
			return fmt.Errorf("chain[%d]: %w", i, err)
		}
	}
	return nil
}

// Process implements Processor.
func (c *chain) Process(port int, d Datum, emit Emit) error {
	c.out = emit
	return c.procs[0].Process(port, d, c.links[0])
}

type chainError struct{ err error }

// RecoverChainError converts a chain panic back into an error; the task
// runtime calls it around Process.
func RecoverChainError(r any) error {
	if r == nil {
		return nil
	}
	if ce, ok := r.(chainError); ok {
		return ce.err
	}
	panic(r)
}
