//go:build !amd64

package bn254

// hasADX is false off amd64: the generic Go is the only implementation.
const hasADX = false

// montMul sets z = x·y·2⁻²⁵⁶ mod Q; see montMulGeneric (fp.go).
func montMul(z, x, y *fp) { montMulGeneric(z, x, y) }

// fp2Mul sets z = x·y; see fp2MulGeneric (fp2.go).
func fp2Mul(z, x, y *fp2) { fp2MulGeneric(z, x, y) }
