#include "model/model_set.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <string_view>
#include <system_error>

#include "model/expr.hpp"
#include "model/linear.hpp"
#include "model/symreg.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace picp {

ModelSet::ModelSet(const ModelSet& other) { *this = other; }

ModelSet& ModelSet::operator=(const ModelSet& other) {
  if (this == &other) return *this;
  entries_.clear();
  for (const auto& [kernel, entry] : other.entries_)
    entries_[kernel] = Entry{entry.model->clone(), entry.features};
  return *this;
}

bool ModelSet::has(const std::string& kernel) const {
  return entries_.count(kernel) > 0;
}

void ModelSet::set(const std::string& kernel,
                   std::unique_ptr<PerfModel> model,
                   std::vector<std::string> features) {
  PICP_REQUIRE(model != nullptr, "null model");
  entries_[kernel] = Entry{std::move(model), std::move(features)};
}

double ModelSet::predict(const std::string& kernel,
                         std::span<const double> features) const {
  const auto it = entries_.find(kernel);
  PICP_REQUIRE(it != entries_.end(), "no model for kernel: " + kernel);
  PICP_REQUIRE(features.size() == it->second.features.size(),
               "feature count mismatch for kernel: " + kernel);
  return std::max(0.0, it->second.model->evaluate(features));
}

const std::vector<std::string>& ModelSet::features_of(
    const std::string& kernel) const {
  const auto it = entries_.find(kernel);
  PICP_REQUIRE(it != entries_.end(), "no model for kernel: " + kernel);
  return it->second.features;
}

const PerfModel& ModelSet::model_of(const std::string& kernel) const {
  const auto it = entries_.find(kernel);
  PICP_REQUIRE(it != entries_.end(), "no model for kernel: " + kernel);
  return *it->second.model;
}

std::vector<std::string> ModelSet::kernels() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [kernel, entry] : entries_) out.push_back(kernel);
  return out;
}

void ModelSet::save(const std::string& path) const {
  std::ofstream out(path);
  PICP_REQUIRE(out.is_open(), "cannot open model file for writing: " + path);
  for (const auto& [kernel, entry] : entries_) {
    out << kernel << " | ";
    for (std::size_t i = 0; i < entry.features.size(); ++i) {
      if (i > 0) out << ',';
      out << entry.features[i];
    }
    out << " | " << entry.model->serialize() << '\n';
  }
  PICP_ENSURE(out.good(), "model file write failed: " + path);
}

namespace {
/// The whitespace-separated fields of one serialized model, parsed with
/// `std::from_chars` rather than a stream: once a process runs threads,
/// every stream pays atomic locale reference counts, and loading models is
/// part of every session's set-up.
class Fields {
 public:
  explicit Fields(std::string_view text) : rest_(text) {}

  /// The next field, or "" when none is left.
  std::string_view word() {
    const std::size_t begin = rest_.find_first_not_of(" \t\r\n");
    if (begin == std::string_view::npos) {
      rest_ = {};
      return {};
    }
    rest_.remove_prefix(begin);
    const std::size_t end =
        std::min(rest_.find_first_of(" \t\r\n"), rest_.size());
    const std::string_view field = rest_.substr(0, end);
    rest_.remove_prefix(end);
    return field;
  }

  /// Parse the next field into `value`; false when there is none or it is
  /// not a whole number of type T.
  template <typename T>
  bool next(T& value) {
    const std::string_view field = word();
    if (field.empty()) return false;
    const char* const end = field.data() + field.size();
    const auto [ptr, ec] = std::from_chars(field.data(), end, value);
    return ec == std::errc() && ptr == end;
  }

  std::string_view rest() const { return rest_; }

 private:
  std::string_view rest_;
};
}  // namespace

std::unique_ptr<PerfModel> ModelSet::parse_model(
    const std::string& serialized, const std::vector<std::string>& features) {
  Fields in(serialized);
  const std::string_view kind = in.word();
  if (kind == "linear") {
    double intercept = 0.0;
    PICP_REQUIRE(in.next(intercept), "malformed linear model");
    std::vector<double> coef;
    for (double c = 0.0; in.next(c);) coef.push_back(c);
    PICP_REQUIRE(coef.size() == features.size(),
                 "linear model arity mismatch");
    return std::make_unique<LinearModel>(std::move(coef), intercept, features);
  }
  if (kind == "poly") {
    std::size_t terms = 0, nf = 0;
    bool ok = in.next(terms) && in.next(nf);
    PICP_REQUIRE(nf == features.size(), "poly model arity mismatch");
    std::vector<std::vector<int>> exps(terms, std::vector<int>(nf, 0));
    std::vector<double> coef(terms, 0.0);
    for (std::size_t k = 0; k < terms && ok; ++k) {
      for (std::size_t f = 0; f < nf && ok; ++f) ok = in.next(exps[k][f]);
      ok = ok && in.next(coef[k]);
    }
    PICP_REQUIRE(ok, "truncated poly model");
    return std::make_unique<PolynomialModel>(std::move(exps), std::move(coef),
                                             features);
  }
  if (kind == "sym") {
    double scale = 0.0, offset = 0.0;
    PICP_REQUIRE(in.next(scale) && in.next(offset), "malformed sym model");
    return std::make_unique<SymbolicModel>(
        Expr::from_tokens(trim(in.rest())), scale, offset, features);
  }
  throw Error("unknown model kind: " + std::string(kind));
}

ModelSet ModelSet::load(const std::string& path) {
  std::ifstream in(path);
  PICP_REQUIRE(in.is_open(), "cannot open model file: " + path);
  ModelSet set;
  std::string line;
  while (std::getline(in, line)) {
    if (trim(line).empty()) continue;
    const auto parts = split(line, '|');
    PICP_REQUIRE(parts.size() == 3, "malformed model line: " + line);
    const std::string kernel = trim(parts[0]);
    std::vector<std::string> features;
    for (const auto& f : split(parts[1], ','))
      if (!trim(f).empty()) features.push_back(trim(f));
    set.set(kernel, parse_model(trim(parts[2]), features), features);
  }
  return set;
}

}  // namespace picp
