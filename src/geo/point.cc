#include "geo/point.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ppgnn {

// Each lane runs Distance's operations in Distance's order, and sqrtpd
// rounds like sqrtsd, so the lanes equal Distance bit for bit as long as
// no FMA fuses a product into the sum (ppgnn_geo's -ffp-contract=off).
void EuclideanDistances(const Point& from, const double* xs,
                        const double* ys, size_t count, double* out) {
  size_t s = 0;
#if defined(__SSE2__)
  const __m128d fx = _mm_set1_pd(from.x);
  const __m128d fy = _mm_set1_pd(from.y);
  for (; s + 2 <= count; s += 2) {
    const __m128d dx = _mm_sub_pd(fx, _mm_loadu_pd(xs + s));
    const __m128d dy = _mm_sub_pd(fy, _mm_loadu_pd(ys + s));
    _mm_storeu_pd(out + s, _mm_sqrt_pd(_mm_add_pd(_mm_mul_pd(dx, dx),
                                                  _mm_mul_pd(dy, dy))));
  }
#endif
  for (; s < count; ++s) out[s] = Distance(from, {xs[s], ys[s]});
}

}  // namespace ppgnn
