#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::string quoted(const std::string &s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

}  // namespace

std::string json_number(const double v) {
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void phase_report::info(const std::string &name, const double v) { info_[name] = json_number(v); }

void phase_report::info(const std::string &name, const std::string &v) { info_[name] = quoted(v); }

void phase_report::check(const bool ok, const std::string &what) {
    if (!ok) {
        errors_.push_back(what);
    }
}

std::string phase_report::to_json() const {
    std::ostringstream out;
    out << "{\"correct\":" << (correct() ? "true" : "false") << ",\"attempted\":" << attempted_
        << ",\"failed\":" << failed_ << ",\"values\":{";
    const char *sep = "";
    for (const auto &[k, v] : values_) {
        out << sep << quoted(k) << ":" << json_number(v);
        sep = ",";
    }
    out << "},\"info\":{";
    sep = "";
    for (const auto &[k, v] : info_) {
        out << sep << quoted(k) << ":" << v;
        sep = ",";
    }
    out << "},\"errors\":[";
    sep = "";
    for (const std::string &e : errors_) {
        out << sep << quoted(e);
        sep = ",";
    }
    out << "]}";
    return out.str();
}

double peak_rss_mb() {
    std::ifstream status{ "/proc/self/status" };
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB
        }
    }
    return std::nan("");
}

}  // namespace perfbench
