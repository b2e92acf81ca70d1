package nativebin

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// reseal recomputes a SELF file's body length and checksum, so mutated
// bodies reach the body parser instead of failing the envelope checks.
func reseal(data []byte) []byte {
	if len(data) < 13 {
		return data
	}
	out := append([]byte(nil), data...)
	body := out[9 : len(out)-4]
	binary.LittleEndian.PutUint32(out[5:9], uint32(len(body)))
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(body))
	return out
}

// FuzzDecode feeds arbitrary bytes to Decode, which the Bouncer review
// runs on every lib/ entry of an untrusted upload. Each input is tried as
// given and resealed (length and checksum recomputed, as an attacker
// would). Hostile input may be rejected but must never panic, and an
// accepted library survives an encode/decode round trip. The seed corpus
// in testdata/fuzz/FuzzDecode holds two builder-produced libraries, a
// truncated one and an empty input.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			l, err := Decode(in)
			if err != nil {
				continue
			}
			enc, err := Encode(l)
			if err != nil {
				t.Fatalf("decoded library does not re-encode: %v", err)
			}
			back, err := Decode(enc)
			if err != nil {
				t.Fatalf("re-encoded library does not decode: %v", err)
			}
			if !reflect.DeepEqual(normalizeLib(l), normalizeLib(back)) {
				t.Fatalf("round trip changed the library:\nwant %+v\ngot  %+v", l, back)
			}
		}
	})
}
