package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func sample() *Snapshot {
	return &Snapshot{
		SpecKey:   "abc123",
		SpecJSON:  []byte(`{"benchmark":"gcc"}`),
		Committed: 50_000,
		State:     []byte(`{"cycles":12345,"rob":[1,2,3]}`),
	}
}

func TestRoundTrip(t *testing.T) {
	s := sample()
	b, err := s.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.SpecKey != s.SpecKey || got.Committed != s.Committed ||
		!bytes.Equal(got.State, s.State) || !bytes.Equal(got.SpecJSON, s.SpecJSON) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, s)
	}
	d1, err := s.Digest()
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := got.Digest()
	if d1 != d2 || len(d1) != 64 {
		t.Fatalf("digest not stable across round trip: %q vs %q", d1, d2)
	}
	// Any content change must change the digest.
	s.Committed++
	if d3, _ := s.Digest(); d3 == d1 {
		t.Fatal("digest unchanged after state change")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.gsnp")
	s := sample()
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SpecKey != s.SpecKey {
		t.Fatalf("file round trip: got key %q", got.SpecKey)
	}
}

// TestWriteFileLeavesNoTemp pins WriteFile's cleanup: neither a successful
// write nor a failed rename leaves the temp file behind.
func TestWriteFileLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "warm.gsnp")
	if err := WriteFile(path, sample()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left after a successful write: %v", err)
	}
	// A non-empty directory under the final name makes the rename fail.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(blocked, sample()); err == nil {
		t.Fatal("WriteFile over a non-empty directory succeeded")
	}
	if _, err := os.Stat(blocked + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left after a failed rename: %v", err)
	}
}

// referenceEnvelope is the plain encoder EncodeBytes must agree with: the
// body is json.Marshal of the whole struct, which re-compacts State.
func referenceEnvelope(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	body, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, headerSize, headerSize+len(body))
	copy(b, magic)
	binary.LittleEndian.PutUint32(b[4:8], Version)
	binary.LittleEndian.PutUint32(b[8:12], uint32(len(body)))
	binary.LittleEndian.PutUint32(b[12:16], crc32.Checksum(body, castagnoli))
	return append(b, body...)
}

// TestEncodeMatchesReference covers the header variants: spec_json present
// or omitted, and an empty State (which encodes as null, as json.Marshal
// writes it).
func TestEncodeMatchesReference(t *testing.T) {
	noSpec := sample()
	noSpec.SpecJSON = nil
	noState := sample()
	noState.State = nil
	for _, s := range []*Snapshot{sample(), noSpec, noState} {
		got, err := s.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceEnvelope(t, s); !bytes.Equal(got, want) {
			t.Errorf("EncodeBytes differs from json.Marshal:\n got  %q\n want %q", got[headerSize:], want[headerSize:])
		}
	}
}

func TestBadMagic(t *testing.T) {
	b, _ := sample().EncodeBytes()
	b[0] = 'X'
	if _, err := DecodeBytes(b); !errors.Is(err, ErrMagic) {
		t.Fatalf("want ErrMagic, got %v", err)
	}
}

func TestVersionSkew(t *testing.T) {
	b, _ := sample().EncodeBytes()
	binary.LittleEndian.PutUint32(b[4:8], Version+1)
	var ve *VersionError
	if _, err := DecodeBytes(b); !errors.As(err, &ve) {
		t.Fatalf("want VersionError, got %v", err)
	} else if ve.Got != Version+1 || ve.Want != Version {
		t.Fatalf("VersionError fields: %+v", ve)
	}
}

func TestTruncation(t *testing.T) {
	b, _ := sample().EncodeBytes()
	var ce *CorruptError
	// Every possible truncation point must produce a typed error, never a
	// partial decode.
	for n := 0; n < len(b); n++ {
		if _, err := DecodeBytes(b[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		} else if n >= 4 && !errors.As(err, &ce) {
			t.Fatalf("truncation to %d bytes: want CorruptError, got %v", n, err)
		}
	}
}

func TestCorruption(t *testing.T) {
	b, _ := sample().EncodeBytes()
	// Flip one body byte: CRC must catch it.
	b[headerSize+5] ^= 0x40
	var ce *CorruptError
	if _, err := DecodeBytes(b); !errors.As(err, &ce) {
		t.Fatalf("want CorruptError after body flip, got %v", err)
	}
}

func TestTrailingGarbage(t *testing.T) {
	b, _ := sample().EncodeBytes()
	b = append(b, 0xde, 0xad)
	var ce *CorruptError
	if _, err := DecodeBytes(b); !errors.As(err, &ce) {
		t.Fatalf("want CorruptError for trailing bytes, got %v", err)
	}
}

func TestOversizedLength(t *testing.T) {
	b, _ := sample().EncodeBytes()
	binary.LittleEndian.PutUint32(b[8:12], maxBody+1)
	var ce *CorruptError
	if _, err := DecodeBytes(b); !errors.As(err, &ce) {
		t.Fatalf("want CorruptError for oversized length, got %v", err)
	}
}

// FuzzSnapshot feeds arbitrary bytes to the decoder: it must never panic,
// and whenever it succeeds, re-encoding the result must decode again (the
// envelope is canonical for what it accepts). EncodeBytes copies State
// verbatim, so when the accepted State is already compact (as json.Marshal
// writes it) the re-encoding must equal the reference encoder's bytes, so
// an input that is itself in that form comes back byte for byte.
func FuzzSnapshot(f *testing.F) {
	good, _ := sample().EncodeBytes()
	f.Add(good)
	f.Add([]byte(magic))
	f.Add([]byte{})
	bad := append([]byte{}, good...)
	bad[20] ^= 0xff
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeBytes(data)
		if err != nil {
			return
		}
		b, err := s.EncodeBytes()
		if err != nil {
			t.Fatalf("decoded snapshot fails to re-encode: %v", err)
		}
		if _, err := DecodeBytes(b); err != nil {
			t.Fatalf("re-encoded snapshot fails to decode: %v", err)
		}
		if compact, _ := json.Marshal(s.State); !bytes.Equal(compact, s.State) {
			return
		}
		ref := referenceEnvelope(t, s)
		if !bytes.Equal(b, ref) {
			t.Fatalf("re-encoding differs from the reference encoder:\n got  %q\n want %q", b, ref)
		}
	})
}
