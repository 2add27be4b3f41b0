#include "dns/zone.h"

#include <algorithm>
#include <stdexcept>

namespace mecdns::dns {

std::string to_string(LookupStatus status) {
  switch (status) {
    case LookupStatus::kSuccess: return "SUCCESS";
    case LookupStatus::kCname: return "CNAME";
    case LookupStatus::kDelegation: return "DELEGATION";
    case LookupStatus::kNoData: return "NODATA";
    case LookupStatus::kNxDomain: return "NXDOMAIN";
    case LookupStatus::kOutOfZone: return "OUTOFZONE";
  }
  return "?";
}

const std::vector<ResourceRecord>* Zone::Node::find(RecordType type) const {
  for (const RRset& set : rrsets) {
    if (set.type == type) return &set.records;
  }
  return nullptr;
}

const Zone::Node* Zone::node(const DnsName& name) const {
  const auto it = nodes_.find(name);
  return it == nodes_.end() ? nullptr : &it->second;
}

const std::vector<ResourceRecord>* Zone::rrset(const DnsName& name,
                                               RecordType type) const {
  const Node* n = node(name);
  return n == nullptr ? nullptr : n->find(type);
}

void Zone::count_rrsets(const DnsName& owner, std::ptrdiff_t delta) {
  DnsName at = owner;
  while (true) {
    Node& n = nodes_[at];
    n.rrsets_below = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(n.rrsets_below) + delta);
    if (n.rrsets_below == 0) nodes_.erase(at);
    if (at.label_count() <= origin_.label_count()) return;
    at = at.parent();
  }
}

util::Result<void> Zone::add(ResourceRecord rr) {
  if (!rr.name.is_subdomain_of(origin_)) {
    return util::Err("record " + rr.name.to_string() + " outside zone " +
                     origin_.to_string());
  }
  if (const Node* owner = node(rr.name); owner != nullptr) {
    // A CNAME must be the only data at its owner (SOA/NS checks included).
    if (rr.type == RecordType::kCname && !owner->rrsets.empty()) {
      return util::Err("CNAME at " + rr.name.to_string() +
                       " conflicts with existing " +
                       to_string(owner->rrsets.front().type));
    }
    if (rr.type != RecordType::kCname &&
        owner->find(RecordType::kCname) != nullptr) {
      return util::Err("data at " + rr.name.to_string() +
                       " conflicts with existing CNAME");
    }
  }
  if (rrset(rr.name, rr.type) == nullptr) count_rrsets(rr.name, 1);
  std::vector<RRset>& sets = nodes_.at(rr.name).rrsets;
  auto it = std::lower_bound(
      sets.begin(), sets.end(), rr.type,
      [](const RRset& set, RecordType type) { return set.type < type; });
  if (it == sets.end() || it->type != rr.type) {
    it = sets.insert(it, RRset{rr.type, {}});
  }
  it->records.push_back(std::move(rr));
  return util::Ok();
}

void Zone::must_add(ResourceRecord rr) {
  auto result = add(std::move(rr));
  if (!result.ok()) throw std::invalid_argument(result.error().message);
}

std::size_t Zone::remove(const DnsName& name, RecordType type) {
  const auto found = nodes_.find(name);
  if (found == nodes_.end()) return 0;
  std::vector<RRset>& sets = found->second.rrsets;
  const auto it = std::find_if(sets.begin(), sets.end(), [&](const RRset& set) {
    return set.type == type;
  });
  if (it == sets.end()) return 0;
  const std::size_t n = it->records.size();
  sets.erase(it);
  count_rrsets(name, -1);
  return n;
}

std::size_t Zone::remove_name(const DnsName& name) {
  const auto found = nodes_.find(name);
  if (found == nodes_.end()) return 0;
  std::vector<RRset>& sets = found->second.rrsets;
  std::size_t n = 0;
  for (const RRset& set : sets) n += set.records.size();
  const auto removed = static_cast<std::ptrdiff_t>(sets.size());
  sets.clear();
  if (removed > 0) count_rrsets(name, -removed);
  return n;
}

std::vector<ResourceRecord> Zone::find(const DnsName& name,
                                       RecordType type) const {
  const auto* records = rrset(name, type);
  return records == nullptr ? std::vector<ResourceRecord>{} : *records;
}

const std::vector<ResourceRecord>* Zone::find_delegation(const DnsName& name,
                                                         DnsName* cut) const {
  // Walk from just below the apex down toward `name`, looking for NS RRsets
  // at intermediate names (zone cuts). NS at the apex is authoritative data,
  // not a cut. A name with no node has nothing at or below it, so the walk
  // stops there.
  const std::size_t apex_labels = origin_.label_count();
  const std::size_t name_labels = name.label_count();
  if (name_labels <= apex_labels) return nullptr;
  for (std::size_t take = apex_labels + 1; take <= name_labels; ++take) {
    // Candidate = last `take` labels of `name`.
    DnsName candidate = name.suffix(take);
    const Node* n = node(candidate);
    if (n == nullptr) return nullptr;
    if (const auto* ns = n->find(RecordType::kNs); ns != nullptr) {
      if (cut != nullptr) *cut = std::move(candidate);
      return ns;
    }
  }
  return nullptr;
}

LookupResult Zone::lookup(const DnsName& name, RecordType type) const {
  LookupResult result;
  if (!name.is_subdomain_of(origin_)) {
    result.status = LookupStatus::kOutOfZone;
    return result;
  }

  // Zone cut between the apex and the name => referral.
  DnsName cut;
  if (const auto* ns_set = find_delegation(name, &cut);
      ns_set != nullptr && !(name == cut && type == RecordType::kNs)) {
    result.status = LookupStatus::kDelegation;
    result.records = *ns_set;
    for (const auto& rr : *ns_set) {
      if (const auto* ns = std::get_if<NsRecord>(&rr.rdata)) {
        auto glue = find(ns->nameserver, RecordType::kA);
        result.glue.insert(result.glue.end(), glue.begin(), glue.end());
      }
    }
    return result;
  }

  const auto answer_at = [&](const DnsName& owner,
                             bool wildcard) -> bool {
    const Node* at = node(owner);
    if (at == nullptr) return false;
    // CNAME indirection (unless the query is for the CNAME itself or ANY).
    const std::vector<ResourceRecord>* cname = nullptr;
    if (type != RecordType::kCname && type != RecordType::kAny) {
      cname = at->find(RecordType::kCname);
    }
    if (cname != nullptr) {
      result.status = LookupStatus::kCname;
      result.records = *cname;
    } else if (type == RecordType::kAny) {
      for (const RRset& set : at->rrsets) {
        result.records.insert(result.records.end(), set.records.begin(),
                              set.records.end());
      }
    } else if (const auto* records = at->find(type); records != nullptr) {
      result.records = *records;
    }
    if (result.records.empty()) return false;
    if (cname == nullptr) result.status = LookupStatus::kSuccess;
    if (wildcard) {
      for (auto& rr : result.records) rr.name = name;
      result.from_wildcard = true;
    }
    return true;
  };

  if (answer_at(name, /*wildcard=*/false)) return result;

  if (name_exists(name)) {
    result.status = LookupStatus::kNoData;
    result.soa = find(origin_, RecordType::kSoa);
    return result;
  }

  // Wildcard synthesis (RFC 4592): the source of synthesis is the "*" child
  // of the closest encloser. Try each ancestor from the closest first.
  DnsName ancestor = name.parent();
  while (ancestor.label_count() + 1 > origin_.label_count()) {
    auto wildcard = ancestor.with_prefix("*");
    if (wildcard.ok() && answer_at(wildcard.value(), /*wildcard=*/true)) {
      return result;
    }
    if (name_exists(ancestor)) break;  // closest encloser reached; stop
    if (ancestor.is_root()) break;
    ancestor = ancestor.parent();
  }

  result.status = LookupStatus::kNxDomain;
  result.soa = find(origin_, RecordType::kSoa);
  return result;
}

std::size_t Zone::record_count() const {
  std::size_t n = 0;
  for (const auto& [name, node] : nodes_) {
    for (const RRset& set : node.rrsets) n += set.records.size();
  }
  return n;
}

std::vector<ResourceRecord> Zone::all() const {
  std::vector<const std::pair<DnsName, Node>*> owners;
  for (const auto& entry : nodes_) {
    if (!entry.second.rrsets.empty()) owners.push_back(&entry);
  }
  std::sort(owners.begin(), owners.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  std::vector<ResourceRecord> out;
  for (const auto* owner : owners) {
    for (const RRset& set : owner->second.rrsets) {
      out.insert(out.end(), set.records.begin(), set.records.end());
    }
  }
  return out;
}

}  // namespace mecdns::dns
