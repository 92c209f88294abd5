package runtime

import (
	"testing"

	"cfgtag/internal/core"
)

// GateFirst exposes the unit-building lever to the external test package.
var GateFirst = gateFirst

// testFactory is NewFactory for tests that charge no gauge (so there is
// nothing to release) and expect the build to succeed.
func testFactory(t testing.TB, spec *core.Spec, lim Limits) Factory {
	t.Helper()
	f, _, err := NewFactory(spec, lim)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// MustFactory exposes testFactory to the external test package.
var MustFactory = testFactory
