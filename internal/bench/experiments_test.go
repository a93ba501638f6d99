package bench

import (
	"strconv"
	"testing"
)

// Tiny-scale smoke runs of the experiments added beyond the paper's core
// tables/figures.

func TestConvCIFARTiny(t *testing.T) {
	e, _ := ByID("conv-cifar")
	res, err := e.Run(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row) != 4 {
			t.Fatalf("row width %d", len(row))
		}
		for _, cell := range row[2:] {
			v := parsePct(t, cell)
			if v < 0 || v > 100 {
				t.Fatalf("accuracy %v out of range", v)
			}
		}
	}
}

func TestWorkModelTiny(t *testing.T) {
	e, _ := ByID("work-model")
	res, err := e.Run(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The Dropout row must predict a larger speedup than the MC row
	// (5% columns vs k-of-batch sampling).
	var dropPred, mcPred float64
	for _, row := range res.Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad predicted speedup %q", row[3])
		}
		switch row[0] {
		case "Dropout-S":
			dropPred = v
		case "MC-M":
			mcPred = v
		}
	}
	if dropPred <= mcPred {
		t.Fatalf("predicted speedups: dropout %v should exceed mc %v", dropPred, mcPred)
	}
}

func TestParallelALSHTiny(t *testing.T) {
	e, _ := ByID("parallel-alsh")
	res, err := e.Run(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // tiny sweeps workers 1, 2
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Accuracy must be reported for every worker count.
	for _, row := range res.Rows {
		v := parsePct(t, row[2])
		if v < 0 || v > 100 {
			t.Fatalf("accuracy %v", v)
		}
	}
}

func TestTable3And4Tiny(t *testing.T) {
	for _, id := range []string{"table3", "table4"} {
		e, _ := ByID(id)
		res, err := e.Run(Tiny)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Rows) < 4 {
			t.Fatalf("%s rows = %d", id, len(res.Rows))
		}
		for _, row := range res.Rows {
			// Every timing cell parses as seconds.
			for _, cell := range row[1:] {
				s := cell
				if s[len(s)-1] != 's' {
					t.Fatalf("%s: cell %q not a duration", id, cell)
				}
				if _, err := strconv.ParseFloat(s[:len(s)-1], 64); err != nil {
					t.Fatalf("%s: cell %q", id, cell)
				}
			}
		}
	}
}

func TestFig8And9Tiny(t *testing.T) {
	e8, _ := ByID("fig8")
	res8, err := e8.Run(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res8.Rows) != 3 {
		t.Fatalf("fig8 rows = %d", len(res8.Rows))
	}
	e9, _ := ByID("fig9")
	res9, err := e9.Run(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res9.Rows) != 7 {
		t.Fatalf("fig9 rows = %d", len(res9.Rows))
	}
}

func TestFig5And6And12Tiny(t *testing.T) {
	for _, id := range []string{"fig5", "fig6", "fig12"} {
		e, _ := ByID(id)
		res, err := e.Run(Tiny)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s has no rows", id)
		}
	}
}
