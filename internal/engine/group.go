package engine

import (
	"fmt"

	"github.com/persistmem/slpmt/internal/logfmt"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/profile"
)

// EpochGroup coordinates the epoch closes of a multi-core cluster's
// engines into one atomic group commit. Per-core group commit alone is
// unsound across cores: transactions on different cores exchange cache
// lines mid-window (a consumer reads a value its producer's epoch has
// not yet made durable), so per-core epochs must not become durable
// independently — a crash could commit the consumer's epoch while
// rolling back the producer's, leaving committed state built on
// phantom values. The group close makes every core's open epoch
// durable in one shot:
//
//  1. prepare: every engine drains + syncs its log stream and issues
//     the data persists that precede its commit point (all enqueue-
//     ordered; a crash here leaves every epoch torn);
//  2. commit point: ONE persist of the shared group descriptor line
//     records each core's (epoch, committed-boundary) pair — the
//     all-or-nothing durability edge of the whole group;
//  3. finish: every engine rewrites its stream header (reopening
//     around a transaction running through the close) and, in redo
//     mode, persists its logged epoch data.
//
// The group also owns the cluster-global transaction sequence that
// boundary records carry, giving recovery the exact global order in
// which interleaved cross-core records must be applied.
//
// The deterministic interleaver runs transactions one at a time, so at
// most one engine (the one whose operation triggered the close) can be
// mid-transaction during a group close; everything here runs on the
// engines' own simulated timelines.
type EpochGroup struct {
	engines  []*Engine
	descAddr mem.Addr
	vec      []logfmt.GroupEntry // volatile descriptor image, one per core
	seq      uint64              // cluster-global transaction sequence
	closing  bool                // re-entrancy guard (persists cannot nest a close)
}

// NewEpochGroup builds the group over the engines of one cluster (all
// configured with the same CommitWindow > 1) and attaches itself to
// each of them.
func NewEpochGroup(engines []*Engine) *EpochGroup {
	if len(engines) > logfmt.MaxGroupCores {
		panic(fmt.Sprintf("engine: group commit supports at most %d cores (descriptor is one line), got %d",
			logfmt.MaxGroupCores, len(engines)))
	}
	g := &EpochGroup{
		engines:  engines,
		descAddr: engines[0].m.Layout.GroupDesc(),
		vec:      make([]logfmt.GroupEntry, len(engines)),
	}
	for _, e := range engines {
		if !e.grouped() {
			panic("engine: epoch group requires CommitWindow > 1 on every engine")
		}
		e.group = g
	}
	g.Reset()
	return g
}

// Reset returns the group to the state NewEpochGroup left it in: the
// global sequence restarts and the volatile descriptor is empty. The
// engines are reset by their owner.
func (g *EpochGroup) Reset() {
	clear(g.vec)
	*g = EpochGroup{engines: g.engines, descAddr: g.descAddr, vec: g.vec}
}

// nextSeq allocates the next cluster-global transaction sequence
// number. With one core the values coincide with the engine's local
// numbering.
func (g *EpochGroup) nextSeq() uint64 {
	g.seq++
	return g.seq
}

// activeLogged reports whether any engine's running transaction has
// logged the line — the redo close must keep such lines' volatile
// (in-flight) contents out of PM.
func (g *EpochGroup) activeLogged(la mem.Addr) bool {
	for _, e := range g.engines {
		if e.txLogged(la) {
			return true
		}
	}
	return false
}

// close runs the atomic group close. trigger is the engine whose
// window filled (or was forced); the descriptor persist is charged to
// its core. Engines whose epochs hold no committed transactions are
// left alone — their previous descriptor entries stay valid, and an
// epoch holding only a running transaction's records needs no commit
// point.
func (g *EpochGroup) close(trigger *Engine) {
	if g.closing {
		return
	}
	g.closing = true
	defer func() { g.closing = false }()
	any := false
	for _, e := range g.engines {
		if e.epochOpen && e.epochTxns > 0 {
			any = true
		}
	}
	if !any {
		return
	}
	// Every engine's records become durably visible before ANY engine
	// persists data: a committed line can carry words whose only undo
	// records sit in a peer's stream (the line migrated mid-window),
	// and persisting it ahead of the peer's sync would strand those
	// words if the crash fell in between.
	for _, e := range g.engines {
		if e.epochOpen && e.epochTxns > 0 {
			e.prepareSync()
		}
	}
	for _, e := range g.engines {
		if e.epochOpen && e.epochTxns > 0 {
			e.preparePersist()
		}
	}
	// Commit point: every prepared engine's (epoch, boundary) lands in
	// the descriptor with one line persist. The boundary excludes the
	// suffix of a transaction running through the close, which stays
	// torn until its own epoch closes.
	for i, e := range g.engines {
		if e.epochOpen && e.epochTxns > 0 {
			b := e.w.nextOff
			if e.cur.active {
				b = e.txnStartOff
			}
			g.vec[i] = logfmt.GroupEntry{Epoch: uint32(e.epoch), Boundary: uint32(b)}
		}
	}
	line := logfmt.EncodeGroupDesc(g.vec)
	prev := trigger.m.SetCause(profile.CauseCommitMarker)
	trigger.m.PersistData(g.descAddr, line[:])
	trigger.m.SetCause(prev)
	for _, e := range g.engines {
		if e.epochOpen && e.epochTxns > 0 {
			e.finishClose()
		}
	}
}
