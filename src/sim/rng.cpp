#include "sim/rng.hpp"

namespace uno {

// Out of line and off the draw path: most streams never reach it.
void Rng::build() { engine_ = std::make_unique<std::mt19937_64>(seed_); }

}  // namespace uno
