package stream

import "github.com/persistmem/slpmt/internal/trace"

// Sanitize is the streaming persist-order sanitizer: a thin consumer
// over trace.Sanitizer's incremental state machine, whose retired-
// transaction state is bounded (trace's maxRetainedTx cap), so a
// million-transaction stream sanitizes in O(live state), not O(events).
//
// It declares AllKinds — the underlying state machine indexes
// violations by position in the full stream, so the consumer must see
// every event (including kinds the rules ignore) for a Violation's
// Index to name the event it was found at.
type Sanitize struct {
	z *trace.Sanitizer
}

// NewSanitize returns a fresh streaming sanitizer.
func NewSanitize() *Sanitize { return &Sanitize{z: trace.NewSanitizer()} }

// Kinds registers every kind: the replay's event indexing covers the
// whole stream.
func (s *Sanitize) Kinds() uint64 { return trace.AllKinds }

// Consume advances the replay by one event.
func (s *Sanitize) Consume(e trace.Event) { s.z.Step(e) }

// Report finalizes the replay; dropped is the stream's drop count
// (Stats.Dropped) and marks the report truncated when nonzero.
func (s *Sanitize) Report(dropped uint64) *trace.Report { return s.z.Report(dropped) }

// Reset restarts the replay at a measured-region boundary.
func (s *Sanitize) Reset() { s.z = trace.NewSanitizer() }
