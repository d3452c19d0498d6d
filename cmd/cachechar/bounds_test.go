package main

import (
	"bytes"
	"testing"
)

// TestSimulationBound: -simulate (single capacity and sweep) and -validate
// refuse an address space above trace.DefaultBudget before a simulator is
// sized. The tiled matmul at N=32768 spans 3·2^30 elements, which the
// stack simulator would have asked about 77 GB for.
func TestSimulationBound(t *testing.T) {
	const want = "address space of 3221225472 elements exceeds limit 268435456"
	for _, o := range []options{
		{kernel: "matmul", n: 32768, tiles: "8,8,8", cacheKB: "64", simulate: true},
		{kernel: "matmul", n: 32768, tiles: "8,8,8", cacheKB: "64,128", simulate: true},
		{kernel: "matmul", n: 32768, tiles: "8,8,8", cacheKB: "64", doVal: true},
	} {
		var buf bytes.Buffer
		if err := run(&buf, o); err == nil || err.Error() != want {
			t.Errorf("-cache-kb %s simulate %v validate %v: got %v, want %q",
				o.cacheKB, o.simulate, o.doVal, err, want)
		}
	}
}
