#include "tpch/queries.h"

#include "common/status.h"

namespace ma::tpch {

const char* QueryName(int q) {
  static const char* kNames[23] = {
      "",
      "Q01 pricing summary",      "Q02 minimum cost supplier",
      "Q03 shipping priority",    "Q04 order priority checking",
      "Q05 local supplier volume", "Q06 forecasting revenue",
      "Q07 volume shipping",      "Q08 national market share",
      "Q09 product type profit",  "Q10 returned items",
      "Q11 important stock",      "Q12 shipping modes",
      "Q13 customer distribution", "Q14 promotion effect",
      "Q15 top supplier",         "Q16 parts/supplier relation",
      "Q17 small-quantity orders", "Q18 large volume customers",
      "Q19 discounted revenue",   "Q20 part promotion",
      "Q21 suppliers kept waiting", "Q22 global sales opportunity"};
  MA_CHECK(q >= 1 && q <= kNumQueries);
  return kNames[q];
}

}  // namespace ma::tpch
