package stream

import "github.com/persistmem/slpmt/internal/trace"

// Consumer is an online trace analysis: it sees events one at a time,
// in stream order, and must keep bounded state. Kinds declares the
// event kinds the consumer handles as a trace.Mask bitmask — events of
// other kinds are filtered out before Consume, and slpmtvet's
// trace-coverage pass statically rejects a Consume body that references
// a kind its Kinds mask does not register. A consumer that inspects
// every event (or delegates without switching on kinds) declares
// trace.AllKinds.
type Consumer interface {
	Kinds() uint64
	Consume(e trace.Event)
}

// Source is anything that can replay an event stream in order: an
// on-disk Dir, or an in-memory Events slice.
type Source interface {
	Iter(fn func(trace.Event)) (*Stats, error)
}

// Events is an in-memory Source: a tracer's buffered events
// (Tracer.Events) or a hand-built stream in tests.
type Events []trace.Event

// Iter implements Source over the slice.
func (ev Events) Iter(fn func(trace.Event)) (*Stats, error) {
	for _, e := range ev {
		fn(e)
	}
	return &Stats{Events: len(ev), Closed: true}, nil
}

// Feed replays src through the consumers, applying each consumer's kind
// mask, and returns the source's stats. This is the offline counterpart
// of attaching consumers to a live Writer.
func Feed(src Source, consumers ...Consumer) (*Stats, error) {
	return src.Iter(masked(consumers).deliver)
}

// maskedConsumers pairs each consumer with its kind mask.
type maskedConsumers []struct {
	c    Consumer
	mask uint64
}

func masked(cs []Consumer) maskedConsumers {
	mc := make(maskedConsumers, len(cs))
	for i, c := range cs {
		mc[i].c, mc[i].mask = c, c.Kinds()
	}
	return mc
}

// deliver hands e to every consumer whose mask admits its kind.
func (mc maskedConsumers) deliver(e trace.Event) {
	for i := range mc {
		if mc[i].mask&(1<<uint(e.Kind)) != 0 {
			mc[i].c.Consume(e)
		}
	}
}
