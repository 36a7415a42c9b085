#include "src/harness/nemesis.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/base/logging.h"

namespace camelot {
namespace {

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) {
    return false;
  }
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

bool ParseI64(const std::string& s, int64_t* out) {
  if (s.empty()) {
    return false;
  }
  char* end = nullptr;
  *out = std::strtoll(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

bool ParseProb(const std::string& s, double* out) {
  if (s.empty()) {
    return false;
  }
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0' && *out >= 0.0 && *out <= 1.0;
}

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= text.size()) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string GroupsToString(const std::vector<std::vector<SiteId>>& groups) {
  std::string out;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (g > 0) {
      out += '|';
    }
    for (size_t i = 0; i < groups[g].size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      out += std::to_string(groups[g][i].value);
    }
  }
  return out;
}

Status ParseGroups(const std::string& text, std::vector<std::vector<SiteId>>* out) {
  out->clear();
  if (text.empty()) {
    return OkStatus();  // "partition:" — isolate everyone.
  }
  for (const std::string& group_text : Split(text, '|')) {
    std::vector<SiteId> group;
    for (const std::string& site_text : Split(group_text, ',')) {
      uint64_t site = 0;
      if (!ParseU64(site_text, &site)) {
        return InvalidArgumentError("nemesis: bad site '" + site_text + "' in partition groups");
      }
      group.push_back(SiteId{static_cast<uint32_t>(site)});
    }
    out->push_back(std::move(group));
  }
  return OkStatus();
}

}  // namespace

std::string NemesisEvent::ToString() const {
  std::string out;
  switch (when) {
    case When::kAbsolute:
      out += '@';
      out += std::to_string(at);
      break;
    case When::kRelative:
      out += '+';
      out += std::to_string(at);
      break;
    case When::kTrigger:
      out += point + "@" + std::to_string(site.value) + "#" + std::to_string(hit);
      break;
  }
  out += "=";
  switch (action) {
    case Action::kPartition:
      out += "partition:" + GroupsToString(groups);
      break;
    case Action::kHeal:
      out += "heal";
      break;
    case Action::kLoss:
      out += "loss:" + std::to_string(value);
      break;
    case Action::kDup:
      out += "dup:" + std::to_string(value);
      break;
    case Action::kReorder:
      out += "reorder:" + std::to_string(value);
      if (duration > 0) {
        out += "," + std::to_string(duration);
      }
      break;
    case Action::kCongest:
      out += "congest:" + std::to_string(duration);
      break;
    case Action::kCalm:
      out += "calm";
      break;
  }
  return out;
}

std::string NemesisScript::ToString() const {
  std::string out;
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) {
      out += ";";
    }
    out += events[i].ToString();
  }
  return out;
}

Result<NemesisScript> NemesisScript::Parse(std::string_view text) {
  NemesisScript script;
  if (text.empty()) {
    return script;
  }
  for (const std::string& event_text : Split(text, ';')) {
    if (event_text.empty()) {
      continue;
    }
    const size_t eq = event_text.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError("nemesis: event '" + event_text + "' has no '='");
    }
    const std::string when_text = event_text.substr(0, eq);
    const std::string action_text = event_text.substr(eq + 1);
    NemesisEvent ev;

    // -- when --
    if (when_text.empty()) {
      return InvalidArgumentError("nemesis: event '" + event_text + "' has no firing condition");
    }
    if (when_text[0] == '@' || when_text[0] == '+') {
      int64_t usec = 0;
      if (!ParseI64(when_text.substr(1), &usec) || usec < 0) {
        return InvalidArgumentError("nemesis: bad time '" + when_text + "'");
      }
      ev.when = when_text[0] == '@' ? NemesisEvent::When::kAbsolute : NemesisEvent::When::kRelative;
      ev.at = usec;
    } else {
      // point@site#hit (same shape as a CrashSchedule entry's location).
      const size_t at_pos = when_text.rfind('@');
      const size_t hash_pos = when_text.rfind('#');
      if (at_pos == std::string::npos || hash_pos == std::string::npos || hash_pos < at_pos) {
        return InvalidArgumentError("nemesis: bad trigger '" + when_text +
                                    "' (want point@site#hit)");
      }
      ev.when = NemesisEvent::When::kTrigger;
      ev.point = when_text.substr(0, at_pos);
      uint64_t site = 0;
      if (ev.point.empty() ||
          !ParseU64(when_text.substr(at_pos + 1, hash_pos - at_pos - 1), &site) ||
          !ParseU64(when_text.substr(hash_pos + 1), &ev.hit) || ev.hit == 0) {
        return InvalidArgumentError("nemesis: bad trigger '" + when_text + "'");
      }
      ev.site = SiteId{static_cast<uint32_t>(site)};
    }

    // -- action --
    const size_t colon = action_text.find(':');
    const std::string verb = action_text.substr(0, colon);
    const std::string arg = colon == std::string::npos ? "" : action_text.substr(colon + 1);
    if (verb == "partition") {
      ev.action = NemesisEvent::Action::kPartition;
      if (Status s = ParseGroups(arg, &ev.groups); !s.ok()) {
        return s;
      }
    } else if (verb == "heal") {
      ev.action = NemesisEvent::Action::kHeal;
    } else if (verb == "loss" || verb == "dup" || verb == "reorder") {
      ev.action = verb == "loss"  ? NemesisEvent::Action::kLoss
                : verb == "dup"   ? NemesisEvent::Action::kDup
                                  : NemesisEvent::Action::kReorder;
      std::string prob_text = arg;
      if (verb == "reorder") {
        const size_t comma = arg.find(',');
        if (comma != std::string::npos) {
          prob_text = arg.substr(0, comma);
          int64_t max_delay = 0;
          if (!ParseI64(arg.substr(comma + 1), &max_delay) || max_delay <= 0) {
            return InvalidArgumentError("nemesis: bad reorder delay in '" + action_text + "'");
          }
          ev.duration = max_delay;
        }
      }
      if (!ParseProb(prob_text, &ev.value)) {
        return InvalidArgumentError("nemesis: bad probability in '" + action_text + "'");
      }
    } else if (verb == "congest") {
      ev.action = NemesisEvent::Action::kCongest;
      int64_t usec = 0;
      if (!ParseI64(arg, &usec) || usec < 0) {
        return InvalidArgumentError("nemesis: bad congest mean in '" + action_text + "'");
      }
      ev.duration = usec;
    } else if (verb == "calm") {
      ev.action = NemesisEvent::Action::kCalm;
    } else {
      return InvalidArgumentError("nemesis: unknown action '" + action_text + "'");
    }
    script.events.push_back(std::move(ev));
  }
  return script;
}

Status Nemesis::Install(NemesisScript script) {
  for (const NemesisEvent& ev : script.events) {
    if (ev.when == NemesisEvent::When::kTrigger && failpoints_ == nullptr) {
      return InvalidArgumentError("nemesis: trigger event '" + ev.ToString() +
                                  "' needs a failpoint registry");
    }
  }
  ++generation_;
  script_ = std::move(script);
  applied_.assign(script_.events.size(), false);
  applied_count_ = 0;
  const uint64_t gen = generation_;
  for (size_t i = 0; i < script_.events.size(); ++i) {
    const NemesisEvent& ev = script_.events[i];
    switch (ev.when) {
      case NemesisEvent::When::kAbsolute:
        sched_.Post(ev.at, [this, i, gen] { Apply(i, gen); });
        break;
      case NemesisEvent::When::kRelative:
        if (i == 0) {  // Relative to Install() when there is no predecessor.
          sched_.Post(ev.at, [this, i, gen] { Apply(i, gen); });
        }
        break;  // Otherwise chained by the predecessor's Apply.
      case NemesisEvent::When::kTrigger:
        failpoints_->Arm(ev.point, ev.site,
                         FailpointArm::Callback(ev.hit, [this, i, gen] { Apply(i, gen); }));
        break;
    }
  }
  return OkStatus();
}

void Nemesis::Apply(size_t index, uint64_t generation) {
  if (generation != generation_ || index >= applied_.size() || applied_[index]) {
    return;
  }
  applied_[index] = true;
  ++applied_count_;
  const NemesisEvent& ev = script_.events[index];
  switch (ev.action) {
    case NemesisEvent::Action::kPartition: {
      const Status s = net_.SetPartition(ev.groups);
      CAMELOT_CHECK(s.ok());  // Scripts are validated before they run.
      break;
    }
    case NemesisEvent::Action::kHeal:
      net_.ClearPartition();
      break;
    case NemesisEvent::Action::kLoss:
      net_.set_loss_probability(ev.value);
      break;
    case NemesisEvent::Action::kDup:
      net_.set_duplicate_probability(ev.value);
      break;
    case NemesisEvent::Action::kReorder:
      net_.set_reorder_probability(ev.value);
      if (ev.duration > 0) {
        net_.set_reorder_delay_max(ev.duration);
      }
      break;
    case NemesisEvent::Action::kCongest:
      net_.set_congestion_delay_mean(ev.duration);
      break;
    case NemesisEvent::Action::kCalm:
      net_.set_loss_probability(0);
      net_.set_duplicate_probability(0);
      net_.set_reorder_probability(0);
      net_.set_congestion_delay_mean(0);
      break;
  }
  char stamp[32];
  std::snprintf(stamp, sizeof(stamp), "[%8.1fms] ", ToMs(sched_.now()));
  log_.push_back(stamp + ev.ToString());
  if (on_apply_) {
    on_apply_(ev);
  }
  // Chain the next event if it is relative to this one.
  const size_t next = index + 1;
  if (next < script_.events.size() &&
      script_.events[next].when == NemesisEvent::When::kRelative) {
    const uint64_t gen = generation_;
    sched_.Post(script_.events[next].at, [this, next, gen] { Apply(next, gen); });
  }
}

void Nemesis::HealAll() {
  NemesisEvent heal;
  heal.action = NemesisEvent::Action::kHeal;
  NemesisEvent calm;
  calm.action = NemesisEvent::Action::kCalm;
  for (const NemesisEvent* ev : {&heal, &calm}) {
    if (ev->action == NemesisEvent::Action::kHeal) {
      net_.ClearPartition();
    } else {
      net_.set_loss_probability(0);
      net_.set_duplicate_probability(0);
      net_.set_reorder_probability(0);
      net_.set_congestion_delay_mean(0);
    }
    if (on_apply_) {
      on_apply_(*ev);
    }
  }
  char stamp[32];
  std::snprintf(stamp, sizeof(stamp), "[%8.1fms] ", ToMs(sched_.now()));
  log_.push_back(std::string(stamp) + "healall");
}

std::vector<std::string> Nemesis::Unapplied() const {
  std::vector<std::string> out;
  for (size_t i = 0; i < script_.events.size(); ++i) {
    if (!applied_[i]) {
      out.push_back(script_.events[i].ToString());
    }
  }
  return out;
}

}  // namespace camelot
