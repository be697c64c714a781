#include "io/fastx.hpp"

#include <fstream>
#include <sstream>

#include "util/common.hpp"

namespace dibella::io {

namespace {

/// Return the line starting at `pos` (without trailing newline) and advance
/// `pos` past it. Returns false at end of data.
bool next_line(std::string_view data, std::size_t& pos, std::string_view& line) {
  if (pos >= data.size()) return false;
  std::size_t nl = data.find('\n', pos);
  if (nl == std::string_view::npos) {
    line = data.substr(pos);
    pos = data.size();
  } else {
    line = data.substr(pos, nl - pos);
    pos = nl + 1;
  }
  // Tolerate CRLF input.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return true;
}

}  // namespace

std::string load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DIBELLA_CHECK(in.good(), "cannot open file: " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void save_file(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  DIBELLA_CHECK(out.good(), "cannot open file for writing: " + path);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  DIBELLA_CHECK(out.good(), "short write to file: " + path);
}

std::vector<Read> parse_fastq(std::string_view data) {
  std::vector<Read> reads;
  std::size_t pos = 0;
  while (pos < data.size()) {
    std::string_view header, seq, plus, qual;
    next_line(data, pos, header);
    if (header.empty()) continue;  // tolerate blank lines between records
    DIBELLA_CHECK(header[0] == '@', "malformed FASTQ: expected '@' header");
    DIBELLA_CHECK(next_line(data, pos, seq), "malformed FASTQ: missing sequence");
    DIBELLA_CHECK(next_line(data, pos, plus) && !plus.empty() && plus[0] == '+',
                  "malformed FASTQ: missing '+' separator");
    DIBELLA_CHECK(next_line(data, pos, qual), "malformed FASTQ: missing quality");
    DIBELLA_CHECK(qual.size() == seq.size(), "malformed FASTQ: quality length mismatch");
    Read r;
    r.gid = reads.size();
    r.name = std::string(header.substr(1));
    r.seq = std::string(seq);
    r.qual = std::string(qual);
    reads.push_back(std::move(r));
  }
  return reads;
}

std::vector<Read> parse_fasta(std::string_view data) {
  std::vector<Read> reads;
  std::size_t pos = 0;
  std::string_view line;
  Read current;
  bool in_record = false;
  auto flush = [&]() {
    if (in_record) {
      current.gid = reads.size();
      reads.push_back(std::move(current));
      current = Read{};
    }
  };
  while (next_line(data, pos, line)) {
    if (line.empty()) continue;
    if (line[0] == '>') {
      flush();
      in_record = true;
      current.name = std::string(line.substr(1));
    } else {
      DIBELLA_CHECK(in_record, "FASTA sequence data before any '>' header");
      current.seq.append(line);
    }
  }
  flush();
  return reads;
}

std::string to_fastq(const std::vector<Read>& reads) {
  std::string out;
  for (const auto& r : reads) {
    out += '@';
    out += r.name;
    out += '\n';
    out += r.seq;
    out += "\n+\n";
    if (r.qual.size() == r.seq.size()) {
      out += r.qual;
    } else {
      out.append(r.seq.size(), '~');
    }
    out += '\n';
  }
  return out;
}

std::string to_fasta(const std::vector<Read>& reads) {
  std::string out;
  for (const auto& r : reads) {
    out += '>';
    out += r.name;
    out += '\n';
    out += r.seq;
    out += '\n';
  }
  return out;
}

}  // namespace dibella::io
