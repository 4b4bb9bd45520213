#include "faults/family_spec.h"

#include <cmath>
#include <cstdio>

#include "core/composition.h"
#include "core/constructions.h"
#include "core/masking.h"
#include "core/witness.h"
#include "uqs/grid.h"
#include "uqs/majority.h"
#include "uqs/paths.h"
#include "uqs/pqs.h"
#include "uqs/projective_plane.h"
#include "uqs/tree.h"

namespace sqs {
namespace {

bool is_comp(const std::string& kind) { return kind.rfind("comp:", 0) == 0; }

}  // namespace

bool FamilySpec::resizable() const {
  if (is_comp(kind)) return true;  // resize changes the outer universe
  return kind == "opta" || kind == "optd" || kind == "majority" ||
         kind == "pqs" || kind == "witness" || kind == "masking-majority" ||
         kind == "masking-opta" || kind == "masking-comp";
}

std::shared_ptr<const QuorumFamily> FamilySpec::make(int n_override) const {
  const int un = n_override >= 0 ? n_override : n;
  if (n_override >= 0 && n_override != n && !resizable()) {
    std::fprintf(stderr, "family '%s' is not resizable (requested n=%d)\n",
                 kind.c_str(), n_override);
    return nullptr;
  }
  if (is_comp(kind)) {
    FamilySpec inner = *this;
    inner.kind = kind.substr(5);
    inner.n = k;
    auto built = inner.make();
    if (built == nullptr) return nullptr;
    return std::make_shared<CompositionFamily>(std::move(built), un, alpha);
  }
  if (kind == "opta") return std::make_shared<OptAFamily>(un, alpha);
  if (kind == "optd") return std::make_shared<OptDFamily>(un, alpha);
  if (kind == "majority") return std::make_shared<MajorityFamily>(un);
  if (kind == "grid") {
    const int s =
        side > 0 ? side : static_cast<int>(std::round(std::sqrt(un)));
    return std::make_shared<GridFamily>(s, s);
  }
  if (kind == "paths") return std::make_shared<PathsFamily>(l);
  if (kind == "tree") return std::make_shared<TreeFamily>(depth);
  if (kind == "pqs") return std::make_shared<PqsFamily>(un, pqs_l);
  if (kind == "plane") return std::make_shared<ProjectivePlaneFamily>(q);
  if (kind == "witness") return std::make_shared<WitnessFamily>(un, w, alpha);
  if (kind == "masking-majority")
    return std::make_shared<MaskingThresholdFamily>(un, b);
  if (kind == "masking-opta")
    return std::make_shared<MaskingOptAFamily>(un, alpha, b);
  if (kind == "masking-comp")
    return std::make_shared<MaskingCompositionFamily>(k, un, alpha, b);
  std::fprintf(stderr, "unknown family kind '%s'\n", kind.c_str());
  return nullptr;
}

std::string FamilySpec::label() const {
  if (empty()) return "(unset)";
  char buf[96];
  if (kind == "majority" || kind == "pqs") {
    std::snprintf(buf, sizeof buf, "%s(n=%d)", kind.c_str(), n);
  } else if (kind.rfind("masking", 0) == 0) {
    std::snprintf(buf, sizeof buf, "%s(n=%d,b=%d)", kind.c_str(), n, b);
  } else if (kind == "paths") {
    std::snprintf(buf, sizeof buf, "paths(l=%d)", l);
  } else if (kind == "tree") {
    std::snprintf(buf, sizeof buf, "tree(depth=%d)", depth);
  } else if (kind == "plane") {
    std::snprintf(buf, sizeof buf, "plane(q=%d)", q);
  } else if (kind == "grid") {
    std::snprintf(buf, sizeof buf, "grid(n=%d)", n);
  } else {
    std::snprintf(buf, sizeof buf, "%s(n=%d,a=%d)", kind.c_str(), n, alpha);
  }
  return buf;
}

FamilyFactory family_factory(const FamilySpec& spec) {
  return [spec](int un) { return spec.make(un); };
}

}  // namespace sqs
