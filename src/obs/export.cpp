#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "crypto/encoding.h"

namespace pvr::obs {

namespace {

[[nodiscard]] Domain domain_from_wire(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(Domain::kSched)) {
    throw std::invalid_argument("MetricsSnapshot::decode: bad domain byte " +
                                std::to_string(raw));
  }
  return static_cast<Domain>(raw);
}

[[nodiscard]] std::uint64_t sat_sub(std::uint64_t a, std::uint64_t b) {
  return a >= b ? a - b : 0;
}

void hist_add(HistogramSnapshot& into, const HistogramSnapshot& from) {
  into.count += from.count;
  into.sum += from.sum;
  if (into.counts.size() < from.counts.size()) {
    into.counts.resize(from.counts.size(), 0);
  }
  for (std::size_t b = 0; b < from.counts.size(); ++b) {
    into.counts[b] += from.counts[b];
  }
}

[[nodiscard]] HistogramSnapshot hist_sub(const HistogramSnapshot& later,
                                         const HistogramSnapshot& earlier) {
  HistogramSnapshot out;
  out.count = sat_sub(later.count, earlier.count);
  out.sum = sat_sub(later.sum, earlier.sum);
  out.counts = later.counts;
  for (std::size_t b = 0;
       b < out.counts.size() && b < earlier.counts.size(); ++b) {
    out.counts[b] = sat_sub(out.counts[b], earlier.counts[b]);
  }
  while (!out.counts.empty() && out.counts.back() == 0) out.counts.pop_back();
  return out;
}

void check_domains(const char* what, const std::string& name, Domain a,
                   Domain b) {
  if (a != b) {
    throw std::invalid_argument(std::string("MetricsSnapshot::") + what +
                                ": domain mismatch for '" + name + "'");
  }
}

}  // namespace

std::vector<std::uint8_t> MetricsSnapshot::encode() const {
  crypto::ByteWriter writer;
  writer.put_u16(kSnapshotWireVersion);
  writer.put_u32(static_cast<std::uint32_t>(scalars.size()));
  for (const Entry& entry : scalars) {
    writer.put_string(entry.name);
    writer.put_u8(static_cast<std::uint8_t>(entry.domain));
    writer.put_u64(entry.value);
  }
  writer.put_u32(static_cast<std::uint32_t>(histograms.size()));
  for (const HistEntry& entry : histograms) {
    writer.put_string(entry.name);
    writer.put_u8(static_cast<std::uint8_t>(entry.domain));
    writer.put_u64(entry.hist.count);
    writer.put_u64(entry.hist.sum);
    writer.put_u32(static_cast<std::uint32_t>(entry.hist.counts.size()));
    for (const std::uint64_t bucket : entry.hist.counts) {
      writer.put_u64(bucket);
    }
  }
  return writer.take();
}

MetricsSnapshot MetricsSnapshot::decode(const std::uint8_t* data,
                                        std::size_t size) {
  crypto::ByteReader reader(std::span<const std::uint8_t>(data, size));
  const std::uint16_t version = reader.get_u16();
  if (version != kSnapshotWireVersion) {
    throw std::invalid_argument(
        "MetricsSnapshot::decode: wire version " + std::to_string(version) +
        " != " + std::to_string(kSnapshotWireVersion));
  }
  MetricsSnapshot out;
  const std::uint32_t n_scalars = reader.get_u32();
  // Name length prefix, domain byte, value.
  reader.require_entries(n_scalars, 4 + 1 + 8);
  out.scalars.reserve(n_scalars);
  for (std::uint32_t i = 0; i < n_scalars; ++i) {
    Entry entry;
    entry.name = reader.get_string();
    entry.domain = domain_from_wire(reader.get_u8());
    entry.value = reader.get_u64();
    out.scalars.push_back(std::move(entry));
  }
  const std::uint32_t n_hists = reader.get_u32();
  // Name length prefix, domain byte, count, sum, bucket count.
  reader.require_entries(n_hists, 4 + 1 + 8 + 8 + 4);
  out.histograms.reserve(n_hists);
  for (std::uint32_t i = 0; i < n_hists; ++i) {
    HistEntry entry;
    entry.name = reader.get_string();
    entry.domain = domain_from_wire(reader.get_u8());
    entry.hist.count = reader.get_u64();
    entry.hist.sum = reader.get_u64();
    const std::uint32_t buckets = reader.get_u32();
    if (buckets > Histogram::kBuckets) {
      throw std::invalid_argument(
          "MetricsSnapshot::decode: histogram bucket count out of range");
    }
    entry.hist.counts.reserve(buckets);
    for (std::uint32_t b = 0; b < buckets; ++b) {
      entry.hist.counts.push_back(reader.get_u64());
    }
    out.histograms.push_back(std::move(entry));
  }
  // Snapshots are sorted by construction; re-sort defensively so fingerprint
  // comparisons never depend on a peer's ordering discipline.
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(out.scalars.begin(), out.scalars.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  // Sorted-union in one pass; equal names add (the commutative shard sum),
  // one-sided names carry over unchanged.
  std::vector<Entry> merged_scalars;
  merged_scalars.reserve(scalars.size() + other.scalars.size());
  std::size_t i = 0, j = 0;
  while (i < scalars.size() || j < other.scalars.size()) {
    if (j >= other.scalars.size() ||
        (i < scalars.size() && scalars[i].name < other.scalars[j].name)) {
      merged_scalars.push_back(std::move(scalars[i++]));
    } else if (i >= scalars.size() ||
               other.scalars[j].name < scalars[i].name) {
      merged_scalars.push_back(other.scalars[j++]);
    } else {
      check_domains("merge", scalars[i].name, scalars[i].domain,
                    other.scalars[j].domain);
      scalars[i].value += other.scalars[j].value;
      merged_scalars.push_back(std::move(scalars[i]));
      ++i;
      ++j;
    }
  }
  scalars = std::move(merged_scalars);

  std::vector<HistEntry> merged_hists;
  merged_hists.reserve(histograms.size() + other.histograms.size());
  i = 0;
  j = 0;
  while (i < histograms.size() || j < other.histograms.size()) {
    if (j >= other.histograms.size() ||
        (i < histograms.size() &&
         histograms[i].name < other.histograms[j].name)) {
      merged_hists.push_back(std::move(histograms[i++]));
    } else if (i >= histograms.size() ||
               other.histograms[j].name < histograms[i].name) {
      merged_hists.push_back(other.histograms[j++]);
    } else {
      check_domains("merge", histograms[i].name, histograms[i].domain,
                    other.histograms[j].domain);
      hist_add(histograms[i].hist, other.histograms[j].hist);
      merged_hists.push_back(std::move(histograms[i]));
      ++i;
      ++j;
    }
  }
  histograms = std::move(merged_hists);
}

MetricsSnapshot MetricsSnapshot::delta(const MetricsSnapshot& later,
                                       const MetricsSnapshot& earlier) {
  MetricsSnapshot out;
  out.scalars.reserve(later.scalars.size());
  std::size_t j = 0;
  for (const Entry& entry : later.scalars) {
    while (j < earlier.scalars.size() &&
           earlier.scalars[j].name < entry.name) {
      ++j;
    }
    Entry diff = entry;
    if (j < earlier.scalars.size() && earlier.scalars[j].name == entry.name) {
      check_domains("delta", entry.name, entry.domain,
                    earlier.scalars[j].domain);
      diff.value = sat_sub(entry.value, earlier.scalars[j].value);
    }
    out.scalars.push_back(std::move(diff));
  }
  out.histograms.reserve(later.histograms.size());
  j = 0;
  for (const HistEntry& entry : later.histograms) {
    while (j < earlier.histograms.size() &&
           earlier.histograms[j].name < entry.name) {
      ++j;
    }
    HistEntry diff;
    diff.name = entry.name;
    diff.domain = entry.domain;
    if (j < earlier.histograms.size() &&
        earlier.histograms[j].name == entry.name) {
      check_domains("delta", entry.name, entry.domain,
                    earlier.histograms[j].domain);
      diff.hist = hist_sub(entry.hist, earlier.histograms[j].hist);
    } else {
      diff.hist = entry.hist;
    }
    out.histograms.push_back(std::move(diff));
  }
  return out;
}

namespace {

// Reads a whole file; throws std::runtime_error when it cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    throw std::runtime_error("merge_traces: cannot open " + path);
  }
  std::string out;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    out.append(buf, n);
  }
  std::fclose(file);
  return out;
}

// Splits the `traceEvents` array of one TraceWriter file into per-event
// JSON object strings (string-aware brace scan; no general JSON parser
// needed for our own writer's output).
[[nodiscard]] std::vector<std::string> split_events(const std::string& text,
                                                    const std::string& path) {
  const std::size_t array_at = text.find("\"traceEvents\":[");
  if (array_at == std::string::npos) {
    throw std::runtime_error("merge_traces: no traceEvents array in " + path);
  }
  std::vector<std::string> events;
  std::size_t pos = array_at + std::string("\"traceEvents\":[").size();
  while (pos < text.size()) {
    while (pos < text.size() &&
           (text[pos] == ',' || text[pos] == '\n' || text[pos] == ' ')) {
      ++pos;
    }
    if (pos >= text.size() || text[pos] == ']') break;
    if (text[pos] != '{') {
      throw std::runtime_error("merge_traces: malformed event in " + path);
    }
    const std::size_t start = pos;
    int depth = 0;
    bool in_string = false;
    for (; pos < text.size(); ++pos) {
      const char c = text[pos];
      if (in_string) {
        if (c == '\\') {
          ++pos;
        } else if (c == '"') {
          in_string = false;
        }
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{') {
        ++depth;
      } else if (c == '}') {
        if (--depth == 0) {
          ++pos;
          break;
        }
      }
    }
    if (depth != 0) {
      throw std::runtime_error("merge_traces: truncated event in " + path);
    }
    events.push_back(text.substr(start, pos - start));
  }
  return events;
}

// Rewrites the event's "pid" field through `remap(old_pid)`; returns the
// old pid (0 when the event carries none).
[[nodiscard]] unsigned remap_pid(std::string& event,
                                 unsigned (*remap)(unsigned, unsigned),
                                 unsigned shard) {
  const std::size_t key_at = event.find("\"pid\":");
  if (key_at == std::string::npos) return 0;
  std::size_t digits = key_at + 6;
  std::size_t end = digits;
  while (end < event.size() && event[end] >= '0' && event[end] <= '9') ++end;
  const unsigned old_pid = static_cast<unsigned>(
      std::strtoul(event.substr(digits, end - digits).c_str(), nullptr, 10));
  event.replace(digits, end - digits, std::to_string(remap(shard, old_pid)));
  return old_pid;
}

[[nodiscard]] bool is_metadata(const std::string& event) {
  return event.find("\"ph\":\"M\"") != std::string::npos;
}

[[nodiscard]] unsigned merged_pid(unsigned shard, unsigned old_pid) {
  // Shard k's wall/sim tracks land on pids 10k+1 / 10k+2: stable, disjoint,
  // and still ordered by shard in the viewer's process list.
  return shard * 10 + old_pid;
}

[[nodiscard]] std::uint64_t dropped_of(const std::string& text) {
  const std::size_t at = text.find("\"droppedEvents\":");
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + 16, nullptr, 10);
}

}  // namespace

std::size_t merge_traces(const std::vector<TraceShard>& shards,
                         const std::string& out_path) {
  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  std::string body;
  std::uint64_t dropped_total = 0;
  std::size_t merged = 0;
  for (std::size_t shard = 0; shard < shards.size(); ++shard) {
    const std::string text = read_file(shards[shard].path);
    dropped_total += dropped_of(text);
    std::vector<bool> track_seen(3, false);
    for (std::string& event : split_events(text, shards[shard].path)) {
      if (is_metadata(event)) continue;  // re-emitted per shard below
      const unsigned old_pid =
          remap_pid(event, &merged_pid, static_cast<unsigned>(shard));
      if (old_pid < track_seen.size()) track_seen[old_pid] = true;
      if (!body.empty()) body += ",\n";
      body += event;
      ++merged;
    }
    for (unsigned old_pid = 1; old_pid < track_seen.size(); ++old_pid) {
      if (!track_seen[old_pid]) continue;
      out += "{\"ph\":\"M\",\"pid\":";
      out += std::to_string(merged_pid(static_cast<unsigned>(shard), old_pid));
      out += ",\"name\":\"process_name\",\"args\":{\"name\":\"";
      out += shards[shard].label;
      out += old_pid == 1 ? "/wall-clock" : "/sim-time";
      out += "\"}},\n";
    }
  }
  out += body;
  out += "\n]";
  if (dropped_total != 0) {
    out += ",\"droppedEvents\":";
    out += std::to_string(dropped_total);
  }
  out += "}\n";

  std::FILE* file = std::fopen(out_path.c_str(), "w");
  if (file == nullptr) {
    throw std::runtime_error("merge_traces: cannot write " + out_path);
  }
  const bool ok = std::fwrite(out.data(), 1, out.size(), file) == out.size();
  if (std::fclose(file) != 0 || !ok) {
    throw std::runtime_error("merge_traces: short write to " + out_path);
  }
  return merged;
}

}  // namespace pvr::obs
