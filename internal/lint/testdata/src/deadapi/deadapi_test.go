package deadapi

import "testing"

func TestCallers(t *testing.T) {
	var c Counter
	if TestOnly() != 1 || c.Peek() != 0 || Recurse(3) != 0 {
		t.Fatal("fixture")
	}
	_ = Celsius(20).String()
}
