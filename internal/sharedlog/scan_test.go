package sharedlog

import "context"

// scanNext returns the first record carrying any of tags at an LSN >=
// from, or nil at the tail. It is a one-shot cursor batch of one — the
// forward point read tests assert with; a position below the trim
// horizon reports ErrCursorInvalidated like any cursor.
func scanNext(l *Log, from LSN, tags ...Tag) (*Record, error) {
	return first(l.OpenCursorOpts(tags, from, CursorOptions{Prefetch: -1}).NextBatch(1))
}

// scanNextBlocking is scanNext that waits for a record, ctx, or Close.
func scanNextBlocking(ctx context.Context, l *Log, from LSN, tags ...Tag) (*Record, error) {
	return first(l.OpenCursorOpts(tags, from, CursorOptions{Prefetch: -1}).NextBatchBlocking(ctx, 1))
}

func first(recs []*Record, err error) (*Record, error) {
	if err != nil || len(recs) == 0 {
		return nil, err
	}
	return recs[0], nil
}

// waitersOn reports how many blocked cursors are parked on tag.
func waitersOn(l *Log, tag Tag) int {
	s := l.index.shardFor(tag)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e := s.m[tag]; e != nil {
		return len(e.waiters)
	}
	return 0
}
