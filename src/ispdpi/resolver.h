// ISP DNS resolvers with blockpage injection (§6.2).
//
// Residential Russian ISPs enforce their own blocking by answering A queries
// for blocklisted domains with the IP of the ISP's blockpage server; the
// blockpage differs from ISP to ISP. Notably, the paper found resolvers
// answer identically whether queried from inside or outside the ISP.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "ispdpi/blocklist.h"
#include "netsim/host.h"
#include "util/ip.h"

namespace tspu::ispdpi {

/// Maps domain names to their "real" A records (the simulated global DNS).
using ZoneLookup =
    std::function<std::optional<util::Ipv4Addr>(const std::string&)>;

struct ResolverConfig {
  std::shared_ptr<const IspBlocklist> blocklist;
  util::Ipv4Addr blockpage_ip;  ///< per-ISP blockpage address
  ZoneLookup zone;              ///< upstream resolution for clean domains
};

/// Installs a UDP/53 resolver service on `host`. Queries for blocklisted
/// domains get the blockpage IP; clean domains resolve via `zone`;
/// unresolvable names get NXDOMAIN.
void attach_blockpage_resolver(netsim::Host& host, ResolverConfig config);

/// Client-side helper: sends an A query from `client` to `resolver_ip` and,
/// after the simulation settles, reads back the answer from the capture.
/// (Issue the query, run the sim, then call `read_answer`.)
std::uint16_t send_dns_query(netsim::Host& client, util::Ipv4Addr resolver_ip,
                             const std::string& domain, std::uint16_t src_port);

std::optional<util::Ipv4Addr> read_dns_answer(const netsim::Host& client,
                                              std::uint16_t query_id);

/// Re-anchors this worker's DNS transaction-ID counter. Called from the
/// trial-isolation path (begin_trial) so query IDs depend only on the
/// current trial, never on shard assignment or prior items.
void reset_dns_query_ids();

}  // namespace tspu::ispdpi
