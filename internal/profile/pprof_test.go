package profile

import (
	"bytes"
	"compress/gzip"
	"context"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// ---- tiny profile.proto encoder (test-only) ----

// profile.proto fields the decoder skips but real profiles carry.
const (
	fProfilePeriodType = 11
	fValueTypeType     = 1
	fLabelNum          = 3
)

type protoBuf struct{ b []byte }

func (p *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *protoBuf) tag(field, wire int) { p.varint(uint64(field<<3 | wire)) }

func (p *protoBuf) intField(field int, v int64) {
	p.tag(field, wireVarint)
	p.varint(uint64(v))
}

func (p *protoBuf) bytesField(field int, b []byte) {
	p.tag(field, wireBytes)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func valueTypeMsg(typ, unit int64) []byte {
	var p protoBuf
	p.intField(fValueTypeType, typ)
	p.intField(fValueTypeUnit, unit)
	return p.b
}

// testProfile builds a deterministic CPU profile:
//
//	strings: 1=samples 2=count 3=cpu 4=nanoseconds 5=fnA 6=fnB 7=fnC
//	         8=stage 9=dynamic 10=interception 11=worker 12=w1 13=bytes
//	locations: 1->[fnA] 2->[fnB] 3->[fnC,fnB] (fnC inlined into fnB)
//	samples: [locA,locB] 10ms {stage=dynamic}
//	         [loc3,locB] 20ms {stage=interception, worker=w1}
//	         [locA,locA]  5ms {bytes=512} (no stage label)
func testProfile(t *testing.T) []byte {
	t.Helper()
	var p protoBuf
	p.bytesField(fProfileSampleType, valueTypeMsg(1, 2)) // samples/count
	p.bytesField(fProfileSampleType, valueTypeMsg(3, 4)) // cpu/nanoseconds

	sample := func(locs []uint64, count, ns int64, packed bool, labels ...[]byte) {
		var s protoBuf
		if packed {
			var ids protoBuf
			for _, l := range locs {
				ids.varint(l)
			}
			s.bytesField(fSampleLocationID, ids.b)
		} else {
			for _, l := range locs {
				s.intField(fSampleLocationID, int64(l))
			}
		}
		var vals protoBuf
		vals.varint(uint64(count))
		vals.varint(uint64(ns))
		s.bytesField(fSampleValue, vals.b)
		for _, l := range labels {
			s.bytesField(fSampleLabel, l)
		}
		p.bytesField(fProfileSample, s.b)
	}
	label := func(key, field int, v int64) []byte {
		var l protoBuf
		l.intField(fLabelKey, int64(key))
		l.intField(field, v)
		return l.b
	}
	sample([]uint64{1, 2}, 1, (10 * time.Millisecond).Nanoseconds(), true,
		label(8, fLabelStr, 9))
	sample([]uint64{3, 2}, 2, (20 * time.Millisecond).Nanoseconds(), false,
		label(11, fLabelStr, 12), label(8, fLabelStr, 10))
	sample([]uint64{1, 1}, 1, (5 * time.Millisecond).Nanoseconds(), true,
		label(13, fLabelNum, 512))

	loc := func(id uint64, fnIDs ...uint64) {
		var l protoBuf
		l.intField(fLocationID, int64(id))
		for _, fn := range fnIDs {
			var ln protoBuf
			ln.intField(fLineFunctionID, int64(fn))
			l.bytesField(fLocationLine, ln.b)
		}
		p.bytesField(fProfileLocation, l.b)
	}
	loc(1, 1) // fnA
	loc(2, 2) // fnB
	loc(3, 3, 2)

	fn := func(id uint64, nameIdx int64) {
		var f protoBuf
		f.intField(fFunctionID, int64(id))
		f.intField(fFunctionName, nameIdx)
		p.bytesField(fProfileFunction, f.b)
	}
	fn(1, 5)
	fn(2, 6)
	fn(3, 7)

	for _, s := range []string{"", "samples", "count", "cpu", "nanoseconds", "fnA", "fnB", "fnC",
		"stage", "dynamic", "interception", "worker", "w1", "bytes"} {
		p.bytesField(fProfileStringTab, []byte(s))
	}
	p.intField(fProfileDuration, (250 * time.Millisecond).Nanoseconds())
	p.bytesField(fProfilePeriodType, valueTypeMsg(3, 4))
	p.intField(fProfilePeriod, (10 * time.Millisecond).Nanoseconds())
	return p.b
}

func gzipBytes(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParseCPUProfileSummary(t *testing.T) {
	raw := testProfile(t)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"plain", raw},
		{"gzipped", gzipBytes(t, raw)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := ParseCPUProfile(tc.data, 0)
			if err != nil {
				t.Fatal(err)
			}
			if s.Samples != 3 {
				t.Fatalf("samples = %d, want 3", s.Samples)
			}
			if want := (35 * time.Millisecond).Nanoseconds(); s.TotalNS != want {
				t.Fatalf("total = %d, want %d", s.TotalNS, want)
			}
			if want := (10 * time.Millisecond).Nanoseconds(); s.PeriodNS != want {
				t.Fatalf("period = %d, want %d", s.PeriodNS, want)
			}
			if want := (250 * time.Millisecond).Nanoseconds(); s.DurationNS != want {
				t.Fatalf("duration = %d, want %d", s.DurationNS, want)
			}
			// flat: fnC 20ms (innermost of inlined leaf), fnA 15ms
			// (10ms + the 5ms recursive sample), fnB 0.
			// cum: fnB 30ms (appears in samples 1 and 2), fnA 15ms
			// (the recursive sample counts once), fnC 20ms.
			want := []FuncCost{
				{Func: "fnC", FlatNS: 20e6, CumNS: 20e6},
				{Func: "fnA", FlatNS: 15e6, CumNS: 15e6},
				{Func: "fnB", FlatNS: 0, CumNS: 30e6},
			}
			if len(s.Top) != len(want) {
				t.Fatalf("top = %+v, want %+v", s.Top, want)
			}
			for i := range want {
				if s.Top[i] != want[i] {
					t.Fatalf("top[%d] = %+v, want %+v", i, s.Top[i], want[i])
				}
			}
			if s.TopFunc() != "fnC" {
				t.Fatalf("top func = %q", s.TopFunc())
			}
		})
	}
}

// TestParseCPUProfileStageCPU pins CPU by stage label: each labelled
// sample's time lands on its stage, other label keys are ignored, and the
// unlabelled sample lands in no stage.
func TestParseCPUProfileStageCPU(t *testing.T) {
	raw := testProfile(t)
	for _, data := range [][]byte{raw, gzipBytes(t, raw)} {
		s, err := ParseCPUProfile(data, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int64{"dynamic": 10e6, "interception": 20e6}
		if !reflect.DeepEqual(s.StageNS, want) {
			t.Fatalf("stage cpu = %v, want %v", s.StageNS, want)
		}
	}
}

func TestParseCPUProfileTopN(t *testing.T) {
	s, err := ParseCPUProfile(testProfile(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Top) != 1 || s.Top[0].Func != "fnC" {
		t.Fatalf("topN=1 kept %+v", s.Top)
	}
}

func TestParseCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := ParseCPUProfile([]byte{0xff, 0xff, 0xff}, 0); err == nil {
		t.Fatal("garbage parsed without error")
	}
	// A truncated valid profile must error, not return a partial summary.
	raw := testProfile(t)
	if _, err := ParseCPUProfile(raw[:len(raw)/2], 0); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}

func TestParseCPUProfileRejectsNonCPU(t *testing.T) {
	// A "profile" with byte-unit values and no period is not CPU time.
	var p protoBuf
	p.bytesField(fProfileSampleType, valueTypeMsg(1, 2))
	for _, s := range []string{"", "inuse_space", "bytes"} {
		p.bytesField(fProfileStringTab, []byte(s))
	}
	if _, err := ParseCPUProfile(p.b, 0); err == nil || !strings.Contains(err.Error(), "not a CPU profile") {
		t.Fatalf("err = %v, want not-a-CPU-profile", err)
	}
}

// FuzzParseCPUProfile feeds arbitrary bytes to ParseCPUProfile, which
// decodes every window the profile ring stores and every profile the
// CLI loads from disk. Input may be rejected but must never panic; an
// accepted profile yields a summary within its topN bound, and
// gzip-wrapping the same bytes changes nothing. The seed corpus in
// testdata/fuzz/FuzzParseCPUProfile holds the labelled fixture, its gzip
// form, a truncated copy and an empty input.
func FuzzParseCPUProfile(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := ParseCPUProfile(raw, 3)
		if err == nil && (s == nil || s.Samples < 0 || len(s.Top) > 3) {
			t.Fatalf("accepted profile gave summary %+v", s)
		}
		if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
			return // already gzipped: the wrapped form would be unwrapped once only
		}
		zs, zerr := ParseCPUProfile(gzipBytes(t, raw), 3)
		if (err == nil) != (zerr == nil) || !reflect.DeepEqual(s, zs) {
			t.Fatalf("gzip changed the parse: %+v, %v vs %+v, %v", s, err, zs, zerr)
		}
	})
}

// TestParseRealCPUProfile round-trips a live runtime/pprof window
// through the decoder: whatever the runtime emitted must parse, and a
// busy loop under the pprof label stage=busy must be sampled under it.
func TestParseRealCPUProfile(t *testing.T) {
	r := New(Options{WindowDur: 80 * time.Millisecond})
	stop := make(chan struct{})
	go pprof.Do(context.Background(), pprof.Labels("stage", "busy"), func(context.Context) {
		x := 0 // keep a core busy so the window has something to sample
		for {
			select {
			case <-stop:
				return
			default:
				x++
			}
		}
	})
	defer close(stop)
	// A loaded host may deliver no sample to the busy goroutine in one
	// window; a few windows make a miss vanishingly unlikely.
	for i := 0; i < 5; i++ {
		w := r.Capture(TriggerSampler, "", "")
		if w.Err != "" {
			t.Fatalf("capture error: %s", w.Err)
		}
		if len(w.Pprof) == 0 {
			t.Fatal("no pprof bytes captured")
		}
		if w.Summary == nil {
			t.Fatal("live profile produced no summary")
		}
		if w.Summary.StageNS["busy"] > 0 {
			return
		}
	}
	t.Fatal("no CPU attributed to the stage=busy label in 5 windows")
}
