package workload

import (
	"reflect"
	"testing"
)

// TestByNameMatchesCatalog: every modeled workload resolves to a value
// equal to its AllWorkloads entry, and the caller owns it — changing a
// returned phase leaves the next lookup untouched.
func TestByNameMatchesCatalog(t *testing.T) {
	for _, want := range AllWorkloads() {
		w, err := ByName(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(w, want) {
			t.Errorf("%s: lookup differs from the catalog entry", want.Name)
		}
		w.Phases[0].Weight = -1
		again, _ := ByName(want.Name)
		if !reflect.DeepEqual(again, want) {
			t.Errorf("%s: mutating one lookup changed the next", want.Name)
		}
	}
	_, err := ByName("linpack")
	const msg = `unknown workload "linpack" (valid: [bt cg cloverleaf cufft dgemm ep ft gpustream hpcg is llmbatch llmchat llmserve lu mg minife sgemm sp sra stream])`
	if err == nil || err.Error() != msg {
		t.Errorf("unknown workload error = %v, want %s", err, msg)
	}
}
