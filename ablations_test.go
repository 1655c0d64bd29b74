package viator

import (
	"strconv"
	"testing"
)

func cellFloat(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Cell(row, col), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", row, col, tb.Cell(row, col))
	}
	return v
}

func TestAblationMorphRateMonotone(t *testing.T) {
	tb := AblationMorphRate(42)
	if tb.NumRows() != 5 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	prev := -1.0
	for r := 0; r < tb.NumRows(); r++ {
		acc := cellFloat(t, tb, r, 1)
		if acc < prev-1e-9 {
			t.Fatalf("accept rate fell at row %d: %v -> %v", r, prev, acc)
		}
		prev = acc
	}
	// Endpoints: no morphing rejects most, full morphing accepts all.
	if cellFloat(t, tb, 0, 1) > 0.5 || cellFloat(t, tb, 4, 1) < 0.999 {
		t.Fatal("endpoint acceptance wrong")
	}
}

func TestAblationJetFanoutTradeoff(t *testing.T) {
	tb := AblationJetFanout(42)
	if tb.NumRows() != 5 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// Bytes grow monotonically with fanout.
	prevBytes := -1.0
	for r := 0; r < tb.NumRows(); r++ {
		b := cellFloat(t, tb, r, 2)
		if b < prevBytes {
			t.Fatalf("bytes fell with fanout at row %d", r)
		}
		prevBytes = b
	}
	// Fanout 3 is much faster than fanout 1.
	t1 := cellFloat(t, tb, 0, 1)
	t3 := cellFloat(t, tb, 2, 1)
	if t3 >= t1 {
		t.Fatalf("fanout 3 (%v s) not faster than 1 (%v s)", t3, t1)
	}
}

func TestAblationHysteresisKnee(t *testing.T) {
	tb := AblationHysteresis(42)
	// Row 0 (hysteresis 1.0) flaps: strictly more migrations than the
	// default band; the top rows freeze (no adaptation at all).
	flap := cellFloat(t, tb, 0, 1)
	stable := cellFloat(t, tb, 2, 1) // 1.2, the default
	frozen := cellFloat(t, tb, tb.NumRows()-1, 1)
	if flap <= stable {
		t.Fatalf("no flapping without hysteresis: %v vs %v", flap, stable)
	}
	if frozen != 0 {
		t.Fatalf("extreme hysteresis still migrated: %v", frozen)
	}
	if stable == 0 {
		t.Fatal("default hysteresis prevented adaptation entirely")
	}
	// The default band still differentiates the fleet.
	if cellFloat(t, tb, 2, 2) < 2 {
		t.Fatalf("entropy at default = %v", cellFloat(t, tb, 2, 2))
	}
}

func TestAblationFactHalfLifeTradeoff(t *testing.T) {
	tb := AblationFactHalfLife(42)
	// Short half-lives keep only refreshed facts (4); long ones hoard the
	// stale half too (8 alive, 4 stale).
	if cellFloat(t, tb, 0, 1) != 4 || cellFloat(t, tb, 0, 2) != 0 {
		t.Fatalf("short half-life row wrong: %s", tb.String())
	}
	last := tb.NumRows() - 1
	if cellFloat(t, tb, last, 1) != 8 || cellFloat(t, tb, last, 2) != 4 {
		t.Fatalf("long half-life row wrong: %s", tb.String())
	}
}
