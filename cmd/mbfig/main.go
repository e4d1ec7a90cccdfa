// Command mbfig renders the paper's architecture figures as ASCII
// diagrams generated from the same connection matrices the models
// analyze, so diagram and analysis cannot diverge.
//
// Usage:
//
//	mbfig -fig 1            # Fig. 1: N×M×B full connection (4×4×2 default)
//	mbfig -fig 2            # Fig. 2: partial bus network, g=2
//	mbfig -fig 3            # Fig. 3: the paper's 3×6×4 K-class example
//	mbfig -fig 4            # Fig. 4: single bus–memory connection
//	mbfig -scheme kclass -n 4 -m 8 -b 4 -k 2   # any custom configuration
package main

import (
	"flag"
	"fmt"
	"os"

	"multibus/internal/scenario"
	"multibus/internal/topology"
)

func main() {
	var (
		figNum = flag.Int("fig", 0, "paper figure number (1–4); 0 uses -scheme flags")
		scheme = flag.String("scheme", "full", "connection scheme: full, single, partial, kclass")
		n      = flag.Int("n", 4, "number of processors")
		m      = flag.Int("m", 0, "number of memory modules (default n)")
		b      = flag.Int("b", 2, "number of buses")
		g      = flag.Int("g", 2, "groups for -scheme partial")
		k      = flag.Int("k", 2, "classes for -scheme kclass")
		wiring = flag.String("wiring", "", "render a custom wiring file instead of a scheme")
		matrix = flag.Bool("matrix", false, "also print the 0/1 connection matrix")
	)
	flag.Parse()
	if *m == 0 {
		*m = *n
	}
	if err := run(*figNum, *scheme, *wiring, *n, *m, *b, *g, *k, *matrix); err != nil {
		fmt.Fprintln(os.Stderr, "mbfig:", err)
		os.Exit(1)
	}
}

func run(figNum int, scheme, wiring string, n, m, b, g, k int, matrix bool) error {
	var nw *topology.Network
	var err error
	switch {
	case wiring != "":
		f, ferr := os.Open(wiring)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		nw, err = topology.ReadWiring(f)
		if err != nil {
			return err
		}
	default:
		nw, err = buildFigure(figNum, scheme, n, m, b, g, k)
	}
	if err != nil {
		return err
	}
	fmt.Print(nw.Diagram())
	if matrix {
		fmt.Println()
		fmt.Print(nw.ConnectionMatrix())
	}
	fmt.Printf("\nconnections: %d   max bus load: %d   fault-tolerance degree: %d\n",
		nw.NumConnections(), nw.MaxBusLoad(), nw.FaultToleranceDegree())
	return nil
}

func buildFigure(figNum int, scheme string, n, m, b, g, k int) (*topology.Network, error) {
	switch figNum {
	case 0:
		return scenario.Network{Scheme: scheme, N: n, M: m, B: b, Groups: g, Classes: k}.Build()
	case 1:
		// Fig. 1: an N×M×B multiple bus network (full connection).
		return topology.Full(4, 4, 2)
	case 2:
		// Fig. 2: an N×M×B partial bus network with g = 2.
		return topology.PartialGroups(4, 4, 2, 2)
	case 3:
		// Fig. 3: the paper's 3×6×4 partial bus network with 3 classes.
		return topology.KClasses(3, 4, []int{2, 2, 2})
	case 4:
		// Fig. 4: an N×M×B network with single bus–memory connection.
		return topology.SingleBus(4, 4, 2)
	default:
		return nil, fmt.Errorf("unknown figure %d (want 1–4)", figNum)
	}
}
