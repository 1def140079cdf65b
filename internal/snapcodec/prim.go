package snapcodec

import (
	"encoding/binary"
	"errors"
)

// The primitives every hand-written format of the module is made of: the
// socket frames (internal/wire), the execute-ack proof (internal/apps) and
// the three disk records of internal/core. Fields are written in a fixed
// order with no type metadata, as in the snapshot format above; what
// differs is the integer: these formats are never hashed into a signed
// digest, so they spend a varint where the snapshot spends eight bytes.
//
// Every value has exactly ONE accepted encoding — integers are minimal
// varints, a bool is 0 or 1, a zero-length byte field decodes to nil — so
// encode(decode(b)) == b for every b a decoder accepts, which is the
// property the fuzz targets check.

// AppendUint appends v as a varint.
func AppendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendInt appends a signed integer as the varint of its two's
// complement: ids, indexes and counts are small and non-negative and take
// one byte; a negative value (only a faulty sender has one) takes ten and
// still round-trips.
func AppendInt(b []byte, v int) []byte { return binary.AppendUvarint(b, uint64(int64(v))) }

// AppendBool appends one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBytes appends a varint length and the bytes.
func AppendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// AppendByteSlices appends a count and each element as AppendBytes does.
func AppendByteSlices(b []byte, ps [][]byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(ps)))
	for _, p := range ps {
		b = AppendBytes(b, p)
	}
	return b
}

// Errors a Reader reports. A decoder's caller learns that the input was
// refused and why; nothing branches on which.
var (
	ErrTruncated = errors.New("snapcodec: truncated input")
	ErrMalformed = errors.New("snapcodec: non-canonical or out-of-range value")
	ErrTrailing  = errors.New("snapcodec: trailing bytes")
)

// Reader consumes a buffer field by field. The first failure sticks: every
// later read returns a zero value and Done reports the failure, so a
// decoder reads all its fields and checks once. No read allocates, and no
// length or count read from the input is believed beyond the bytes that
// are actually left.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a reader over b. Byte fields it returns alias b.
func NewReader(b []byte) Reader { return Reader{buf: b} }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// Uint reads a varint, refusing an encoding longer than the value needs.
func (r *Reader) Uint() uint64 {
	if len(r.buf) > 0 && r.buf[0] < 0x80 {
		v := r.buf[0]
		r.buf = r.buf[1:]
		return uint64(v)
	}
	v, n := binary.Uvarint(r.buf)
	switch {
	case n == 0:
		r.fail(ErrTruncated)
		return 0
	case n < 0 || r.buf[n-1] == 0: // overflow, or a padded encoding
		r.fail(ErrMalformed)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Uint32 reads a varint that must fit 32 bits.
func (r *Reader) Uint32() uint32 {
	v := r.Uint()
	if v > 1<<32-1 {
		r.fail(ErrMalformed)
		return 0
	}
	return uint32(v)
}

// Int reads what AppendInt wrote.
func (r *Reader) Int() int {
	v := int64(r.Uint())
	if int64(int(v)) != v {
		r.fail(ErrMalformed)
		return 0
	}
	return int(v)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.buf) == 0 {
		r.fail(ErrTruncated)
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.Byte()
	if v > 1 {
		r.fail(ErrMalformed)
	}
	return v == 1
}

// take returns the next n bytes, aliasing the input with the capacity
// clipped: nil when n is 0, a failure when fewer are left.
func (r *Reader) take(n uint64) []byte {
	if n > uint64(len(r.buf)) {
		r.fail(ErrTruncated)
		return nil
	}
	if n == 0 {
		return nil
	}
	p := r.buf[:n:n]
	r.buf = r.buf[n:]
	return p
}

// atMost admits n as an element count when the bytes left can hold n
// elements of at least minSize each — checked BEFORE the caller allocates,
// or a few bytes could demand gigabytes.
func (r *Reader) atMost(n uint64, minSize int) int {
	if n > uint64(len(r.buf)/minSize) {
		r.fail(ErrTruncated)
		return 0
	}
	return int(n)
}

// Fixed returns the next n bytes (a digest), aliasing the input.
func (r *Reader) Fixed(n int) []byte { return r.take(uint64(n)) }

// Bytes reads a length-prefixed byte field: nil when empty, otherwise a
// slice ALIASING the input, its capacity clipped so that appending to it
// cannot reach the fields behind it.
func (r *Reader) Bytes() []byte { return r.take(r.Uint()) }

// Count reads an element count for a slice whose elements each take at
// least minSize bytes, refusing a count the remaining input cannot hold.
func (r *Reader) Count(minSize int) int { return r.atMost(r.Uint(), minSize) }

// ByteSlices reads what AppendByteSlices wrote: nil for no elements, nil
// for each empty element, the others aliasing the input.
func (r *Reader) ByteSlices() [][]byte {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	ps := make([][]byte, n)
	for i := range ps {
		ps[i] = r.Bytes()
	}
	return ps
}

// U64 reads eight big-endian bytes: the integer of the HASHED formats (the
// snapshot and bucket framings of this package, core's reply table), which
// are fixed-width and frozen. Their decoders share this reader; only their
// integers differ from the varint formats above.
func (r *Reader) U64() uint64 {
	if len(r.buf) < 8 {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// U32 reads four big-endian bytes.
func (r *Reader) U32() uint32 {
	if len(r.buf) < 4 {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}

// Bytes64 is Bytes for a U64 length.
func (r *Reader) Bytes64() []byte { return r.take(r.U64()) }

// Count64 is Count for a U64 count.
func (r *Reader) Count64(minSize int) int { return r.atMost(r.U64(), minSize) }

// Len reports the bytes not yet read (0 after a failure).
func (r *Reader) Len() int { return len(r.buf) }

// Done reports the first failure, or ErrTrailing when input is left over.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) != 0 {
		r.err = ErrTrailing
	}
	return r.err
}
