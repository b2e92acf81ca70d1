package trace

import (
	"bytes"
	"io"
	"testing"
)

// FuzzDecodeJSONL feeds arbitrary bytes to DecodeJSONL, which reads the
// trace files `apkinspect trace` is pointed at. Decoding may reject the
// input but must never panic, and neither may Render on any trace it
// accepts. Encode∘decode is idempotent on accepted traces: re-encoding
// what was decoded and decoding that again gives the same bytes. The
// seed corpus in testdata/fuzz/FuzzDecodeJSONL holds two encoded traces
// (one with span events, attributes and an error), a truncated line, a
// span tree with a null child (which once crashed Render) and an empty
// input.
func FuzzDecodeJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		traces, err := DecodeJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, tr := range traces {
			Render(io.Discard, tr)
		}
		var once bytes.Buffer
		if err := EncodeJSONL(&once, traces...); err != nil {
			t.Fatalf("accepted traces do not encode: %v", err)
		}
		again, err := DecodeJSONL(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded traces do not decode: %v\n%s", err, once.Bytes())
		}
		var twice bytes.Buffer
		if err := EncodeJSONL(&twice, again...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("encode∘decode not idempotent:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
