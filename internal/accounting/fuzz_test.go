package accounting

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

// wastedPacket carries nonzero wasted-work fields, forcing the v2 wire form.
func wastedPacket() *Packet {
	p := samplePacket()
	p.Jobs[0].WastedCoreSeconds = 12800.5
	p.Jobs[0].WastedNUs = 3.5
	return p
}

func TestWireV2RoundTrip(t *testing.T) {
	p := wastedPacket()
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if data[len(wireMagic)] != wireVersion2 {
		t.Fatalf("packet with wasted work encoded as version %d, want %d",
			data[len(wireMagic)], wireVersion2)
	}
	got, err := DecodePacket(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("v2 round trip mismatch:\nin:  %+v\nout: %+v", p, got)
	}
}

func TestWireV1ByteStableWithoutWaste(t *testing.T) {
	// Fault-free packets (all wasted fields zero) must keep the exact v1
	// encoding: the determinism gate compares wire byte counters across runs.
	data, err := samplePacket().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if data[len(wireMagic)] != wireVersion {
		t.Fatalf("fault-free packet encoded as version %d, want %d",
			data[len(wireMagic)], wireVersion)
	}
}

// Every prefix of a valid packet must fail with ErrBadPacket — typed, never
// a panic, never a silent success.
func TestDecodeTruncationsReturnTypedError(t *testing.T) {
	for _, p := range []*Packet{samplePacket(), wastedPacket()} {
		data, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(data); n++ {
			_, derr := DecodePacket(data[:n])
			if derr == nil {
				t.Fatalf("decode of %d/%d-byte prefix succeeded", n, len(data))
			}
			if !errors.Is(derr, ErrBadPacket) {
				t.Fatalf("prefix %d: error %v does not wrap ErrBadPacket", n, derr)
			}
		}
	}
}

func TestDecodeCorruptJSONReturnsTypedError(t *testing.T) {
	if _, err := DecodePacket([]byte("{not valid json")); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("corrupt JSON error %v does not wrap ErrBadPacket", err)
	}
}

// FuzzDecodePacket drives arbitrary bytes through the packet decoder. The
// invariant under test: DecodePacket never panics, and every failure wraps
// the typed ErrBadPacket so callers can match it. A successful decode must
// survive a wire round trip bit for bit: Encode(DecodePacket(Encode(p)))
// is byte-identical to Encode(p). Comparing wire bytes rather than decoded
// structs is exact on every float (NaN included, which never equals
// itself) and ignores the nil-versus-empty slice difference the legacy
// JSON path produces, which the wire cannot carry.
func FuzzDecodePacket(f *testing.F) {
	v1, _ := samplePacket().Encode()
	v2, _ := wastedPacket().Encode()
	js, _ := samplePacket().EncodeJSON()
	empty, _ := (&Packet{Site: "s", Seq: 1}).Encode()
	f.Add(v1)
	f.Add(v2)
	f.Add(js)
	f.Add(empty)
	f.Add(v1[:len(v1)/2])
	f.Add(v2[:len(v2)-3])
	f.Add([]byte{})
	f.Add([]byte("TGP"))
	f.Add([]byte("TGP\x01"))
	f.Add([]byte("TGP\x02\x00"))
	f.Add([]byte("TGP\x63junk"))
	f.Add([]byte("{\"site\":"))
	f.Add(append(append([]byte{}, v1...), 0xaa))
	nan := samplePacket()
	nan.Jobs[0].NUs = math.NaN()
	nanWire, _ := nan.Encode()
	f.Add(nanWire)
	f.Add([]byte(`{"joBs":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePacket(data)
		if err != nil {
			if !errors.Is(err, ErrBadPacket) {
				t.Fatalf("error %v does not wrap ErrBadPacket", err)
			}
			return
		}
		// Successful decode: the packet must survive a wire round trip.
		re, err := p.Encode()
		if err != nil {
			t.Fatalf("re-encode of decoded packet failed: %v", err)
		}
		q, err := DecodePacket(re)
		if err != nil {
			t.Fatalf("decode of re-encoded packet failed: %v", err)
		}
		again, err := q.Encode()
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(re, again) {
			t.Fatalf("wire round trip mismatch:\n%x\n%x", re, again)
		}
	})
}
