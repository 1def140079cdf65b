package snapcodec

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUint(b, 0)
	b = AppendUint(b, 127)
	b = AppendUint(b, 128)
	b = AppendUint(b, math.MaxUint64)
	b = AppendInt(b, -1)
	b = AppendInt(b, math.MinInt64)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendBytes(b, nil)
	b = AppendBytes(b, []byte{})
	b = AppendBytes(b, []byte("abc"))
	b = append(b, "xyz"...)

	r := NewReader(b)
	for _, want := range []uint64{0, 127, 128, math.MaxUint64} {
		if got := r.Uint(); got != want {
			t.Fatalf("Uint %d, want %d", got, want)
		}
	}
	if a, b := r.Int(), r.Int(); a != -1 || b != math.MinInt64 {
		t.Fatalf("Int %d %d", a, b)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool")
	}
	if a, b := r.Bytes(), r.Bytes(); a != nil || b != nil {
		t.Fatalf("empty byte fields decode to %v %v, want nil", a, b)
	}
	abc := r.Bytes()
	if string(abc) != "abc" || cap(abc) != 3 {
		t.Fatalf("Bytes %q cap %d", abc, cap(abc))
	}
	if string(r.Fixed(3)) != "xyz" {
		t.Fatal("Fixed")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderRefuses(t *testing.T) {
	for _, c := range []struct {
		name string
		in   []byte
		read func(*Reader)
		want error
	}{
		{"empty uint", nil, func(r *Reader) { r.Uint() }, ErrTruncated},
		{"cut varint", []byte{0x80}, func(r *Reader) { r.Uint() }, ErrTruncated},
		{"padded zero", []byte{0x80, 0x00}, func(r *Reader) { r.Uint() }, ErrMalformed},
		{"padded one", []byte{0x81, 0x80, 0x00}, func(r *Reader) { r.Uint() }, ErrMalformed},
		{"overflow", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uint() }, ErrMalformed},
		{"uint32 range", AppendUint(nil, 1<<32), func(r *Reader) { r.Uint32() }, ErrMalformed},
		{"flag", []byte{2}, func(r *Reader) { r.Bool() }, ErrMalformed},
		{"bytes beyond input", []byte{5, 1, 2}, func(r *Reader) { r.Bytes() }, ErrTruncated},
		{"bytes length 2^63", AppendUint(nil, 1<<63), func(r *Reader) { r.Bytes() }, ErrTruncated},
		{"fixed", []byte{1}, func(r *Reader) { r.Fixed(2) }, ErrTruncated},
		{"count", []byte{3, 0, 0, 0, 0, 0}, func(r *Reader) { r.Count(2) }, ErrTruncated},
		{"trailing", []byte{1, 2}, func(r *Reader) { r.Byte() }, ErrTrailing},
	} {
		r := NewReader(c.in)
		c.read(&r)
		if err := r.Done(); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
	}
	// The first failure sticks and later reads return zero values.
	r := NewReader([]byte{2, 7, 7})
	if r.Bool(); r.Uint() != 0 || r.Bytes() != nil || r.Count(1) != 0 || r.Done() != ErrMalformed {
		t.Fatal("reads after a failure did not stay failed")
	}
	if n := r.Count(1); n != 0 {
		t.Fatal(n)
	}
	ok := NewReader([]byte{2, 0, 0, 0, 0})
	if n := ok.Count(2); n != 2 {
		t.Fatalf("Count %d, want 2", n)
	}
}
