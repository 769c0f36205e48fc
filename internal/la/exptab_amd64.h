// The rows of expTab (lanes.go), each one constant in all four lanes, as
// byte offsets from R8, which holds &expTab. The order must match expTab's
// rows in lanes.go. lanes_amd64.s reads each row whole; lanes_avx512_amd64.s
// broadcasts each from its first lane.
#define LOG2E   0(R8)
#define LN2U    32(R8)
#define LN2L    64(R8)
#define C16TH   96(R8)
#define P8      128(R8)
#define P7      160(R8)
#define P6      192(R8)
#define P5      224(R8)
#define P4      256(R8)
#define P3      288(R8)
#define HALF    320(R8)
#define ONE     352(R8)
#define TWO     384(R8)
#define ARGMIN  416(R8)
#define ARGMAX  448(R8)
#define BIAS    480(R8)
