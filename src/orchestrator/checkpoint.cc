#include "orchestrator/checkpoint.h"

#include <algorithm>

#include "core/json_reader.h"
#include "core/serialize.h"
#include "orchestrator/campaign.h"

namespace collie::orchestrator {

bool CampaignCheckpoint::completed(const std::string& label) const {
  return std::find(completed_cells.begin(), completed_cells.end(), label) !=
         completed_cells.end();
}

std::string CampaignCheckpoint::to_json() const {
  core::JsonWriter json;
  json.begin_object();
  json.field("version", 1);
  json.field("share", share);
  json.key("scopes");
  json.begin_object();
  for (const auto& [scope, entries] : scopes) {
    json.begin_array(scope);
    for (const core::Mfs& mfs : entries) core::mfs_to_json(mfs, &json);
    json.end_array();
  }
  json.end_object();
  json.begin_array("completed_cells");
  for (const std::string& label : completed_cells) json.value(label);
  json.end_array();
  json.end_object();
  return json.str();
}

CampaignCheckpoint CampaignCheckpoint::from_json(const std::string& text) {
  const core::JsonValue doc = core::JsonValue::parse(text);
  const i64 version = doc.at("version").as_i64();
  if (version != 1) {
    throw core::JsonError("unsupported checkpoint version " +
                          std::to_string(version));
  }
  CampaignCheckpoint ck;
  ck.share = doc.at("share").as_string();
  if (ck.share != "subsystem" && ck.share != "cell") {
    throw core::JsonError("unknown share scope \"" + ck.share + "\"");
  }
  for (const auto& [scope, entries] : doc.at("scopes").members()) {
    std::vector<core::Mfs>& dst = ck.scopes[scope];
    for (const core::JsonValue& mfs : entries.items()) {
      dst.push_back(core::mfs_from_json(mfs));
    }
  }
  for (const core::JsonValue& label : doc.at("completed_cells").items()) {
    ck.completed_cells.push_back(label.as_string());
  }
  return ck;
}

namespace {

// String-aware scanners over the JsonWriter's compact layout, used only by
// the lenient checkpoint recovery (the strict path is the real parser).

// `t[i]` must be '"'.  Returns one past the closing quote, npos on a tear.
std::size_t skip_string(const std::string& t, std::size_t i) {
  for (std::size_t p = i + 1; p < t.size(); ++p) {
    if (t[p] == '\\') {
      ++p;
      continue;
    }
    if (t[p] == '"') return p + 1;
  }
  return std::string::npos;
}

// Returns one past the balanced value starting at `i`, npos on a tear.
std::size_t skip_value(const std::string& t, std::size_t i) {
  if (i >= t.size()) return std::string::npos;
  if (t[i] == '"') return skip_string(t, i);
  if (t[i] == '{' || t[i] == '[') {
    int depth = 0;
    std::size_t p = i;
    while (p < t.size()) {
      const char c = t[p];
      if (c == '"') {
        p = skip_string(t, p);
        if (p == std::string::npos) return std::string::npos;
        continue;
      }
      if (c == '{' || c == '[') depth += 1;
      if (c == '}' || c == ']') {
        depth -= 1;
        if (depth == 0) return p + 1;
      }
      ++p;
    }
    return std::string::npos;
  }
  std::size_t p = i;
  while (p < t.size() && t[p] != ',' && t[p] != '}' && t[p] != ']') ++p;
  return p;
}

std::string decode_string(const std::string& t, std::size_t begin,
                          std::size_t end) {
  // Re-parse the quoted slice so escapes decode exactly as the strict
  // parser would.
  return core::JsonValue::parse(t.substr(begin, end - begin)).as_string();
}

}  // namespace

CheckpointRecovery recover_checkpoint(const std::string& text) {
  CheckpointRecovery r;
  try {
    CampaignCheckpoint ck = CampaignCheckpoint::from_json(text);
    for (const auto& [scope, entries] : ck.scopes) {
      (void)scope;
      r.entries_loaded += static_cast<i64>(entries.size());
    }
    r.checkpoint = std::move(ck);
    r.strict = true;
    r.error_offset = text.size();
    return r;
  } catch (const core::JsonError& e) {
    r.error = e.what();
  }

  // Lenient valid-prefix scan.  Checkpoints are written by JsonWriter in a
  // fixed compact layout; walk it record by record, keep everything that
  // still parses, and stop at the first tear.
  CampaignCheckpoint ck;
  bool scopes_clean = false;
  static const std::string kShare = "\"share\":\"";
  const std::size_t share_at = text.find(kShare);
  if (share_at != std::string::npos) {
    const std::size_t end = skip_string(text, share_at + kShare.size() - 1);
    if (end != std::string::npos) {
      const std::string share =
          decode_string(text, share_at + kShare.size() - 1, end);
      if (share == "subsystem" || share == "cell") {
        ck.share = share;
        r.last_valid = "share \"" + share + "\"";
        r.error_offset = end;
      }
    }
  }
  static const std::string kScopes = "\"scopes\":{";
  std::size_t pos = text.find(kScopes);
  if (pos != std::string::npos) {
    pos += kScopes.size();
    while (pos < text.size()) {
      if (text[pos] == '}') {
        pos += 1;
        scopes_clean = true;
        break;
      }
      if (text[pos] == ',') {
        pos += 1;
        continue;
      }
      if (text[pos] != '"') break;
      const std::size_t key_end = skip_string(text, pos);
      if (key_end == std::string::npos || key_end >= text.size() ||
          text[key_end] != ':' || key_end + 1 >= text.size() ||
          text[key_end + 1] != '[') {
        break;
      }
      std::string scope;
      try {
        scope = decode_string(text, pos, key_end);
      } catch (const core::JsonError&) {
        break;
      }
      std::size_t p = key_end + 2;
      bool array_clean = false;
      while (p < text.size()) {
        if (text[p] == ']') {
          p += 1;
          array_clean = true;
          break;
        }
        if (text[p] == ',') {
          p += 1;
          continue;
        }
        const std::size_t vend = skip_value(text, p);
        if (vend == std::string::npos) break;
        try {
          ck.scopes[scope].push_back(
              core::mfs_from_json(core::JsonValue::parse(
                  text.substr(p, vend - p))));
        } catch (const core::JsonError&) {
          break;
        }
        r.entries_loaded += 1;
        r.last_valid = "scope \"" + scope + "\" mfs #" +
                       std::to_string(ck.scopes[scope].size() - 1);
        r.error_offset = vend;
        p = vend;
      }
      pos = p;
      if (!array_clean) break;
      r.error_offset = pos;
    }
  }
  // Completed-cell labels only count past an intact scopes object: with a
  // tear inside it, anything later in the file is unreachable prefix-wise.
  if (scopes_clean) {
    static const std::string kCompleted = "\"completed_cells\":[";
    const std::size_t c = text.find(kCompleted, pos);
    if (c != std::string::npos) {
      std::size_t p = c + kCompleted.size();
      while (p < text.size()) {
        if (text[p] == ']') break;
        if (text[p] == ',') {
          p += 1;
          continue;
        }
        if (text[p] != '"') break;
        const std::size_t end = skip_string(text, p);
        if (end == std::string::npos) break;
        try {
          ck.completed_cells.push_back(decode_string(text, p, end));
        } catch (const core::JsonError&) {
          break;
        }
        r.last_valid =
            "completed cell \"" + ck.completed_cells.back() + "\"";
        r.error_offset = end;
        p = end;
      }
    }
  }
  r.checkpoint = std::move(ck);
  return r;
}

CampaignCheckpoint make_checkpoint(const CampaignResult& result) {
  CampaignCheckpoint ck;
  ck.share = to_string(result.share);
  ck.scopes = result.pool_scopes;
  for (const CellResult& cr : result.cells) {
    // Completed = ran to the end of its budget this run, or was already
    // completed by the checkpoint this run warm-started from.  Failed
    // cells are left out so the next run retries them.
    if (cr.skipped || !cr.failed()) {
      ck.completed_cells.push_back(cr.cell.label());
    }
  }
  return ck;
}

}  // namespace collie::orchestrator
