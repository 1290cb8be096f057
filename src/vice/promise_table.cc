#include "src/vice/promise_table.h"

#include <algorithm>

#include "src/sim/kernel.h"

namespace itc::vice {

SimTime PromiseTable::Grant(const Fid& fid, CallbackReceiver* who, SimTime now,
                            SimTime expiry) {
  if (now < suspended_until_) {
    stats_.refused += 1;
    return 0;
  }
  promises_[fid][who] = expiry;
  stats_.granted += 1;
  return expiry;
}

std::vector<Fid> PromiseTable::Renew(CallbackReceiver* who, const std::vector<Fid>& fids,
                                     SimTime now, SimTime expiry) {
  std::vector<Fid> rejected;
  for (const Fid& fid : fids) {
    bool live = false;
    if (now >= suspended_until_) {
      auto it = promises_.find(fid);
      if (it != promises_.end()) {
        auto holder = it->second.find(who);
        live = holder != it->second.end() && holder->second > now;
        if (live) holder->second = std::max(holder->second, expiry);
      }
    }
    if (live) {
      stats_.renewed += 1;
    } else {
      // Expired, never held, or under the restart embargo: renewal would
      // resurrect a promise the server may already have considered dead
      // while mutating — the holder must revalidate the file instead.
      stats_.rejected += 1;
      rejected.push_back(fid);
    }
  }
  return rejected;
}

void PromiseTable::Release(const Fid& fid, CallbackReceiver* who) {
  auto it = promises_.find(fid);
  if (it == promises_.end()) return;
  it->second.erase(who);
  if (it->second.empty()) promises_.erase(it);
}

void PromiseTable::ReleaseAll(CallbackReceiver* who) {
  for (auto it = promises_.begin(); it != promises_.end();) {
    it->second.erase(who);
    if (it->second.empty()) {
      it = promises_.erase(it);
    } else {
      ++it;
    }
  }
}

bool PromiseTable::Notify(const Fid& fid, CallbackReceiver* holder, SimTime* t,
                          NodeId server_node, net::Network* network,
                          sim::Resource* server_cpu, const sim::CostModel& cost) {
  *t = sim::Charge(*server_cpu, *t, cost.server_lwp_switch);
  if (!network->Reachable(server_node, holder->callback_node(), *t)) {
    network->NotePartitionDrop(server_node);
    stats_.lost += 1;
    return false;
  }
  network->Send(server_node, holder->callback_node(), 64, *t,
                [holder, fid] { holder->OnCallbackBroken(fid); });
  return true;
}

BreakResult PromiseTable::Break(const Fid& fid, CallbackReceiver* except, SimTime at,
                                NodeId server_node, net::Network* network,
                                sim::Resource* server_cpu, const sim::CostModel& cost) {
  // Under the restart embargo the table is empty but a pre-crash promise the
  // server no longer remembers may still be live somewhere; no mutation may
  // complete until every such promise has run out.
  BreakResult result{0, std::max(at, suspended_until_)};
  auto it = promises_.find(fid);
  if (it == promises_.end()) return result;

  SimTime t = at;
  bool writer_held = false;
  SimTime writer_expiry = 0;
  for (const auto& [holder, expiry] : it->second) {
    if (holder == except) {
      writer_held = true;
      writer_expiry = expiry;
      continue;
    }
    if (expiry <= at) continue;  // already lapsed on its own
    if (Notify(fid, holder, &t, server_node, network, server_cpu, cost)) {
      result.sent += 1;
    } else if (expiry != sim::kNeverSimTime) {
      // Cannot be told, but the promise ends: the write may not complete
      // until it has run out.
      stats_.waited_out += 1;
      result.safe = std::max(result.safe, expiry);
    }
  }
  if (result.sent > 0) stats_.break_events += 1;
  stats_.broken += result.sent;

  // Everyone else's promise is now void. The writer's own promise survives:
  // its cached copy is the new version, and it must still hear about
  // subsequent writes by others.
  promises_.erase(it);
  if (writer_held) promises_[fid][except] = writer_expiry;
  return result;
}

uint32_t PromiseTable::BreakVolume(VolumeId volume, SimTime at, NodeId server_node,
                                   net::Network* network, sim::Resource* server_cpu,
                                   const sim::CostModel& cost) {
  uint32_t sent = 0;
  SimTime t = at;
  for (auto it = promises_.begin(); it != promises_.end();) {
    if (it->first.volume != volume) {
      ++it;
      continue;
    }
    for (const auto& [holder, expiry] : it->second) {
      if (expiry <= at) continue;
      if (Notify(it->first, holder, &t, server_node, network, server_cpu, cost)) sent += 1;
    }
    it = promises_.erase(it);
  }
  if (sent > 0) stats_.break_events += 1;
  stats_.broken += sent;
  return sent;
}

bool PromiseTable::HasPromise(const Fid& fid, const CallbackReceiver* who,
                              SimTime now) const {
  auto it = promises_.find(fid);
  if (it == promises_.end()) return false;
  auto holder = it->second.find(const_cast<CallbackReceiver*>(who));
  return holder != it->second.end() && holder->second > now;
}

size_t PromiseTable::promise_count(SimTime now) const {
  size_t n = 0;
  for (const auto& [fid, holders] : promises_) {
    for (const auto& [holder, expiry] : holders) {
      if (expiry > now) n += 1;
    }
  }
  return n;
}

}  // namespace itc::vice
