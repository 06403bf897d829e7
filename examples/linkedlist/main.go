// Linkedlist reproduces Figure 1 of the paper: inserting node B between
// A and C in a doubly-linked list needs four pointer writes, but only
// the FIRST one needs an undo log record — the bidirectional links are
// redundant, so a crash-interrupted insert can be repaired by the small
// fix-up routine of Figure 1(d) instead of logging everything.
//
// The program builds a persistent list, performs inserts whose last
// three writes are log-free storeTs, then simulates a crash in the
// middle of an insert (between the first, logged write and the rest)
// and runs the fix-up to show the list recovering to a consistent
// state.
//
// Run:
//
//	go run ./examples/linkedlist
package main

import (
	"fmt"
	"log"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/recovery"
)

// Node layout: {value, prev, next}.
const (
	offVal  = 0
	offPrev = 8
	offNext = 16
	nodeSz  = 24
)

// insertAfter inserts a fresh node with value v after node a (Figure 1).
func insertAfter(tx *slpmt.Tx, a slpmt.Addr, v uint64) slpmt.Addr {
	c := slpmt.Addr(tx.LoadU64(a + offNext))
	b := tx.Alloc(nodeSz)
	// The fresh node's fields are log-free (Pattern 1).
	tx.StoreTU64(b+offVal, v, slpmt.LogFree)
	tx.StoreTU64(b+offPrev, uint64(a), slpmt.LogFree)
	tx.StoreTU64(b+offNext, uint64(c), slpmt.LogFree)
	// Write 1 (logged): a->next = b. This is the only undo record the
	// transaction needs — everything after it is recoverable from the
	// list's redundancy.
	tx.StoreU64(a+offNext, uint64(b))
	// Write 4 (log-free): c->prev = b, repairable by the fix-up.
	if c != 0 {
		tx.StoreTU64(c+offPrev, uint64(b), slpmt.LogFree)
	}
	return b
}

// fixup is Figure 1(d): after the undo log restored a->next, walk the
// list and re-establish every prev pointer from the next pointers.
func fixup(img *pmem.Image, head mem.Addr) int {
	fixed := 0
	prev := mem.Addr(0)
	for n := head; n != 0; n = mem.Addr(img.ReadU64(n + offNext)) {
		if mem.Addr(img.ReadU64(n+offPrev)) != prev {
			img.WriteU64(n+offPrev, uint64(prev))
			fixed++
		}
		prev = n
	}
	return fixed
}

func dump(img *pmem.Image, head mem.Addr) string {
	s := "["
	for n := head; n != 0; n = mem.Addr(img.ReadU64(n + offNext)) {
		if n != head {
			s += " "
		}
		s += fmt.Sprint(img.ReadU64(n + offVal))
	}
	return s + "]"
}

func build(sys *slpmt.System, crashAfter uint64) (head slpmt.Addr, img *pmem.Image, crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(machine.CrashSignal); !ok {
				panic(r)
			}
			crashed = true
			img = sys.Mach.Crash()
		}
	}()
	if err := sys.Update(func(tx *slpmt.Tx) error {
		head = tx.Alloc(nodeSz)
		tx.StoreTU64(head+offVal, 0, slpmt.LogFree)
		tx.StoreTU64(head+offPrev, 0, slpmt.LogFree)
		tx.StoreTU64(head+offNext, 0, slpmt.LogFree)
		tx.SetRoot(0, uint64(head))
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	sys.Mach.Machine().CrashAfterTotal = crashAfter
	cur := head
	for v := uint64(1); v <= 5; v++ {
		if err := sys.Update(func(tx *slpmt.Tx) error {
			cur = insertAfter(tx, cur, v*10)
			return nil
		}); err != nil {
			log.Fatal(err)
		}
	}
	return head, sys.Mach.Crash(), false
}

func main() {
	// Clean run first: count the persist events of a full build.
	sys := slpmt.New(slpmt.Options{Scheme: "SLPMT"})
	head, img, _ := build(sys, 0)
	fmt.Println("clean run, durable list:", dump(img, head))
	total := sys.Mach.Machine().PersistTotal
	logRecords := sys.Stats().LogRecordsCreated
	fmt.Printf("undo records: %d total — 1 for the setup's root store, then exactly 1 per insert\n", logRecords)
	fmt.Printf("(the other three pointer writes of each insert are log-free storeTs)\n\n")

	// Crash in the middle of the build, at every 7th persist event.
	for point := total / 3; point < total; point += 7 {
		s2 := slpmt.New(slpmt.Options{Scheme: "SLPMT"})
		h2, img2, crashed := build(s2, point)
		if !crashed {
			continue
		}
		// Hardware recovery: apply the undo log of the interrupted
		// transaction, reverting its one logged write.
		rep, err := recovery.ApplyLog(img2)
		if err != nil {
			log.Fatal(err)
		}
		// Application recovery (Figure 1d): repair the log-free prev
		// pointers from the logged/restored next pointers.
		fixed := fixup(img2, h2)
		fmt.Printf("crash@%-3d -> undo applied %d records, fix-up repaired %d prev pointers: %s\n",
			point, rep.RecordsApplied, fixed, dump(img2, h2))
		// Verify consistency: prev must invert next everywhere.
		prev := mem.Addr(0)
		for n := h2; n != 0; n = mem.Addr(img2.ReadU64(n + offNext)) {
			if mem.Addr(img2.ReadU64(n+offPrev)) != prev {
				log.Fatalf("list inconsistent after recovery at node %#x", n)
			}
			prev = n
		}
	}
	fmt.Println("\nevery crash point recovered to a consistent doubly-linked list")
}
