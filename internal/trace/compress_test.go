package trace

import (
	"os"
	"reflect"
	"testing"
)

func TestCompressedRoundTrip(t *testing.T) {
	tr := randTrace(t, 21, true, 200)
	dir := t.TempDir()
	plain := dir + "/t.vidt"
	comp := dir + "/t.vidz"
	if err := tr.Save(plain); err != nil {
		t.Fatal(err)
	}
	if err := tr.SaveCompressed(comp); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{plain, comp} {
		got, err := LoadAuto(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got.TotalTransactions() != tr.TotalTransactions() || got.Len() != tr.Len() {
			t.Fatalf("%s: round trip lost data", path)
		}
		if !reflect.DeepEqual(got.Meta.Channels, tr.Meta.Channels) {
			t.Fatalf("%s: meta lost", path)
		}
	}
}

func TestCompressedIsSmallerOnStructuredTraces(t *testing.T) {
	// A trace with repetitive contents compresses well.
	m := testMeta(false)
	tr := NewTrace(m)
	for i := 0; i < 500; i++ {
		tr.Append(false).Start(0, []byte{0xAA, 0xBB, 0xCC, 0xDD}).End(0, nil)
	}
	plain := int64(len(tr.Bytes()))
	comp, err := tr.CompressedSize()
	if err != nil {
		t.Fatal(err)
	}
	if comp >= plain/4 {
		t.Fatalf("compression ineffective: %d vs %d plain", comp, plain)
	}
}

func TestLoadAutoRejectsUnknownMagic(t *testing.T) {
	path := t.TempDir() + "/bad"
	if err := os.WriteFile(path, []byte("NOPEnope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAuto(path); err == nil {
		t.Fatal("expected magic error")
	}
}
