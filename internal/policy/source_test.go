package policy

import "testing"

func TestStoreSource(t *testing.T) {
	src := NewStoreSource(testKB(), 42)
	sn := src.Snapshot()
	if sn.Step() != 42 || sn.Len() != 3 {
		t.Errorf("snapshot = step %d len %d", sn.Step(), sn.Len())
	}
	if src.Snapshot() != sn {
		t.Error("the fixed source served a second snapshot")
	}
}
