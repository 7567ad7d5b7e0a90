#include "tspu/policy.h"

#include <algorithm>
#include <array>
#include <string_view>

#include "util/strings.h"

namespace tspu::core {
namespace {

using util::ascii_lower;

/// Writes `host` lowercased and reversed into `out` (no allocation for the
/// common SNI length). "A.Example.COM" -> "moc.elpmaxe.a".
std::string_view reverse_lower(std::string_view host,
                               std::array<char, 256>& out,
                               std::string& overflow) {
  if (host.size() <= out.size()) {
    for (std::size_t i = 0; i < host.size(); ++i) {
      out[host.size() - 1 - i] = ascii_lower(host[i]);
    }
    return std::string_view(out.data(), host.size());
  }
  overflow.assign(host.rbegin(), host.rend());
  for (char& c : overflow) c = ascii_lower(c);
  return overflow;
}

}  // namespace

void Policy::add_sni(const std::string& domain, SniPolicy behavior) {
  const std::string key = util::to_lower(domain);
  rules_by_suffix_[std::string(key.rbegin(), key.rend())] = behavior;
}

std::optional<SniPolicy> Policy::match_sni(std::string_view host) const {
  // Longest-prefix match over reversed keys replaces the old per-label walk
  // ("a.b.example.com" probed itself, then "b.example.com", ...): a rule
  // matches when its reversed form is a prefix of the reversed host ending
  // at a label boundary, and the LONGEST such prefix is exactly the most
  // specific registered parent domain — identical semantics, one lookup,
  // no per-label substring allocations.
  if (rules_by_suffix_.empty()) return std::nullopt;
  std::array<char, 256> buf;
  std::string overflow;
  const std::string_view rev = reverse_lower(host, buf, overflow);

  const auto begin = rules_by_suffix_.begin();  // consolidates: one sorted run
  std::string_view needle = rev;
  for (;;) {
    // Largest key <= needle. Any boundary-valid prefix of `rev` no longer
    // than `needle` sorts <= needle, so it can only be this candidate or a
    // prefix of it — shrinking the needle walks exactly those candidates,
    // longest first. The FlatMap's transparent comparator searches on the
    // string_view needle directly.
    auto it = rules_by_suffix_.upper_bound(needle);
    if (it == begin) return std::nullopt;
    --it;
    const std::string_view key(it->first);
    if (rev.substr(0, key.size()) == key) {
      if (key.size() == rev.size() || rev[key.size()] == '.')
        return it->second;
      // Prefix but not at a label boundary ("moc.elpmaxe" inside
      // "moc.elpmaxeton"): only shorter prefixes can still match.
      if (key.empty()) return std::nullopt;
      needle = rev.substr(0, key.size() - 1);
      continue;
    }
    // Shrink to the common prefix of candidate and needle; anything longer
    // cannot be a prefix of rev.
    const std::size_t common =
        std::mismatch(key.begin(), key.end(), needle.begin(), needle.end())
            .first -
        key.begin();
    if (common == 0) return std::nullopt;
    needle = rev.substr(0, common);
  }
}

}  // namespace tspu::core
