package bench

import (
	"strconv"
	"strings"
	"testing"
)

func TestScaleParsing(t *testing.T) {
	for _, s := range []string{"tiny", "small", "paper"} {
		sc, err := ParseScale(s)
		if err != nil || sc.String() != s {
			t.Fatalf("ParseScale(%q) = %v, %v", s, sc, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("unknown scale must error")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"theory-table", "table2", "table3", "table4",
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "conv-cifar", "work-model",
		"fig10", "fig11", "fig12", "pred-collapse", "mem", "parallel-alsh",
	}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	if len(Experiments()) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(Experiments()), len(want))
	}
	if _, err := ByID("table9"); err == nil {
		t.Fatal("unknown id must error")
	}
	// Sorted output.
	exps := Experiments()
	for i := 1; i < len(exps); i++ {
		if exps[i].ID < exps[i-1].ID {
			t.Fatal("Experiments() not sorted")
		}
	}
}

func TestTheoryTableRunsAnywhere(t *testing.T) {
	e, _ := ByID("theory-table")
	res, err := e.Run(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("theory table rows = %d", len(res.Rows))
	}
	// Closed form and exact-c simulation columns must agree.
	for _, row := range res.Rows {
		a, _ := strconv.ParseFloat(row[1], 64)
		b, _ := strconv.ParseFloat(row[2], 64)
		if a != b {
			t.Fatalf("closed form %v != simulation %v", a, b)
		}
	}
	if !strings.Contains(res.Render(), "0.2000") {
		t.Fatal("render missing first ratio")
	}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad percentage %q", s)
	}
	return v
}

func TestTable2Tiny(t *testing.T) {
	e, _ := ByID("table2")
	res, err := e.Run(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // tiny uses mnist + cifar10
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row) != 7 {
			t.Fatalf("row width = %d", len(row))
		}
		for _, cell := range row[1:] {
			v := parsePct(t, cell)
			if v < 0 || v > 100 {
				t.Fatalf("accuracy %v out of range", v)
			}
		}
	}
}

func TestFig7TinyShowsShapes(t *testing.T) {
	e, _ := ByID("fig7")
	res, err := e.Run(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 { // tiny depths 1,3,5
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// MC column present and within range at every depth.
	for _, row := range res.Rows {
		if v := parsePct(t, row[3]); v < 0 || v > 100 {
			t.Fatalf("MC accuracy %v", v)
		}
	}
}

func TestFig10And11Tiny(t *testing.T) {
	e10, _ := ByID("fig10")
	res, err := e10.Run(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("fig10 rows = %d", len(res.Rows))
	}
	e11, _ := ByID("fig11")
	res11, err := e11.Run(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	// The MC/Standard time ratio must shrink as the batch grows — the
	// fig11 crossover shape.
	first, errA := strconv.ParseFloat(res11.Rows[0][3], 64)
	last, errB := strconv.ParseFloat(res11.Rows[len(res11.Rows)-1][3], 64)
	if errA != nil || errB != nil {
		t.Fatalf("bad ratios in %v", res11.Rows)
	}
	if last >= first {
		t.Fatalf("MC/Standard ratio should shrink with batch: %v → %v", first, last)
	}
}

func TestMemTiny(t *testing.T) {
	e, _ := ByID("mem")
	res, err := e.Run(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	// ALSH row must report nonzero index memory; others zero.
	var alshIdx, stdIdx string
	for _, row := range res.Rows {
		if row[0] == "ALSH" {
			alshIdx = row[3]
		}
		if row[0] == "Standard-M" {
			stdIdx = row[3]
		}
	}
	if alshIdx == "0" || alshIdx == "" {
		t.Fatalf("ALSH index bytes = %q", alshIdx)
	}
	if stdIdx != "0" {
		t.Fatalf("Standard index bytes = %q, want 0", stdIdx)
	}
}

func TestPredCollapseTiny(t *testing.T) {
	e, _ := ByID("pred-collapse")
	res, err := e.Run(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row) != 5 {
			t.Fatalf("row width %d", len(row))
		}
	}
}

func TestRenderAndCSV(t *testing.T) {
	r := &Result{
		ID: "x", Title: "T", PaperRef: "ref",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "va,l"}, {"2", `q"t`}},
		Notes:   []string{"n1"},
	}
	out := r.Render()
	for _, want := range []string{"== T [x] ==", "ref", "a", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	csv := r.CSV()
	if !strings.Contains(csv, `"va,l"`) || !strings.Contains(csv, `"q""t"`) {
		t.Fatalf("CSV quoting broken:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Fatalf("CSV header broken:\n%s", csv)
	}
}
