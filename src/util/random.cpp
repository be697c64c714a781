#include "util/random.hpp"

#include <cmath>

namespace dibella::util {

u64 Xoshiro256::uniform_below(u64 n) {
  DIBELLA_CHECK(n > 0, "uniform_below(0)");
  // Lemire-style rejection to avoid modulo bias.
  u64 threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    u64 r = next();
    if (r >= threshold) return r % n;
  }
}

double Xoshiro256::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller: two uniforms -> two independent normals.
  double u1 = uniform();
  double u2 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return r * std::cos(theta);
}

double Xoshiro256::lognormal(double target_mean, double sigma) {
  // If X ~ LogNormal(mu, sigma) then E[X] = exp(mu + sigma^2/2); solve for mu
  // such that the distribution mean equals target_mean.
  DIBELLA_CHECK(target_mean > 0.0, "lognormal target mean must be positive");
  double mu = std::log(target_mean) - 0.5 * sigma * sigma;
  return std::exp(normal(mu, sigma));
}

u64 Xoshiro256::poisson(double lambda) {
  DIBELLA_CHECK(lambda >= 0.0, "poisson lambda must be >= 0");
  if (lambda <= 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth's product-of-uniforms method.
    double limit = std::exp(-lambda);
    double prod = uniform();
    u64 n = 0;
    while (prod > limit) {
      ++n;
      prod *= uniform();
    }
    return n;
  }
  // Normal approximation with continuity correction, adequate for data-set
  // sizing decisions at large lambda.
  double x = normal(lambda, std::sqrt(lambda));
  return x < 0.0 ? 0 : static_cast<u64>(x + 0.5);
}

}  // namespace dibella::util
