package main

import (
	"bytes"
	"os"
	"testing"
)

// TestGolden pins the example's output byte for byte to
// testdata/golden.txt.
func TestGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from testdata/golden.txt:\n%s", got.Bytes())
	}
}
