package tensor

// DType identifies a tensor's element type. The zero value is Float64, so
// existing construction paths keep their float64 behaviour; the float32
// backend is opt-in (via nn.ModelSpec.DType / fl.Config.DType).
type DType uint8

const (
	// Float64 is the default precision: every federated aggregation and
	// model-state exchange happens in float64 regardless of the compute
	// dtype, so results stay comparable across backends.
	Float64 DType = iota
	// Float32 halves the memory traffic of every training kernel and
	// doubles SIMD width; parameters, layer scratch and optimizer state are
	// held as float32 while server-side aggregation stays float64.
	Float32
)

// String returns the Go-style name of the dtype.
func (dt DType) String() string {
	switch dt {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	default:
		return "dtype?"
	}
}

// ParseDType maps the user-facing names ("float64"/"f64", "float32"/"f32",
// "") to a DType; ok is false for anything else. The empty string selects
// the Float64 default.
func ParseDType(s string) (DType, bool) {
	switch s {
	case "", "float64", "f64", "fp64":
		return Float64, true
	case "float32", "f32", "fp32":
		return Float32, true
	default:
		return Float64, false
	}
}

// Elem constrains the generic element-wise kernels to the two supported
// element types.
type Elem interface {
	~float32 | ~float64
}
