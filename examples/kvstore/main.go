// Kvstore runs the paper's PMDK-style key-value store on the simulated
// hardware, comparing the three index backends (btree, ctree, rtree)
// across hardware schemes — a miniature of the paper's Figure 14.
//
// Run:
//
//	go run ./examples/kvstore [-n 500] [-value 128]
package main

import (
	"flag"
	"fmt"
	"log"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/workloads"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
	"github.com/persistmem/slpmt/internal/ycsb"
)

func main() {
	n := flag.Int("n", 500, "insert operations")
	value := flag.Int("value", 128, "value size (bytes)")
	flag.Parse()

	schemes := []string{"FG", "SLPMT", "ATOM", "EDE"}
	fmt.Printf("%-10s", "backend")
	for _, s := range schemes {
		fmt.Printf("  %12s", s)
	}
	fmt.Println("   (cycles/op, PM bytes/op)")

	for _, backend := range workloads.PMKV() {
		fmt.Printf("%-10s", backend)
		for _, scheme := range schemes {
			w := workloads.MustNew(backend)
			sys := slpmt.New(slpmt.Options{
				Scheme:             scheme,
				ComputeCyclesPerOp: w.ComputeCost(),
			})
			if err := w.Setup(sys); err != nil {
				log.Fatal(err)
			}
			load := ycsb.Load{N: *n, ValueSize: *value}
			if err := load.Each(func(k uint64, v []byte) error {
				return w.Insert(sys, k, v)
			}); err != nil {
				log.Fatal(err)
			}
			sys.DrainLazy()
			// Read the figures before Check: it walks the oracle map in
			// random order, so its cycles would make the table vary.
			cycles, pmBytes := sys.Cycles(), sys.Stats().PMWriteBytes()
			if err := w.Check(sys, load.Oracle()); err != nil {
				log.Fatalf("%s/%s: %v", backend, scheme, err)
			}
			fmt.Printf("  %6d/%5d", cycles/uint64(*n), pmBytes/uint64(*n))
		}
		fmt.Println()
	}
	fmt.Println("\nall backends verified against the full oracle under every scheme")
}
