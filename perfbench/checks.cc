#include "checks.hh"

#include <fstream>
#include <stdexcept>

#include "verify/golden.hh"

namespace perfbench {

Expected Expected::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read expected values " + path);
  Expected out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) {
      throw std::runtime_error("malformed expected line: " + line);
    }
    out.values_[line.substr(0, space)] = line.substr(space + 1);
  }
  return out;
}

const std::string* Expected::find(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

std::string Checker::check(const std::string& key, const std::string& value,
                           bool required) {
  const auto [it, first] = seen_.emplace(key, value);
  if (const std::string* want = expected_.find(key)) {
    if (*want != value) return key + ": expected " + *want + ", got " + value;
    return "";
  }
  if (required) return key + ": no expected value recorded";
  if (!first && it->second != value) {
    return key + ": changed within the run, " + it->second + " then " + value;
  }
  return "";
}

GoldenPlans::GoldenPlans(const std::string& golden_dir,
                         const re::sim::MachineConfig& machine)
    : machine_name_(machine.name) {
  const std::string path =
      golden_dir + "/" + re::verify::golden_filename(machine.name);
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read golden plans " + path);
  std::string line;
  std::string current;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("benchmark ", 0) == 0) current = line.substr(10);
    blocks_[current] += line + "\n";
  }
}

std::string GoldenPlans::check(
    const std::string& benchmark,
    const std::vector<re::core::PrefetchPlan>& plans) const {
  const auto it = blocks_.find(benchmark);
  if (it == blocks_.end()) return benchmark + ": not in the golden snapshot";
  const std::string actual = re::verify::render_golden(
      {re::verify::GoldenEntry{benchmark, plans}}, machine_name_);
  const std::string diff = re::verify::diff_golden(it->second, actual);
  return diff.empty() ? "" : benchmark + " plans differ from golden:\n" + diff;
}

std::string machine_slug(const re::sim::MachineConfig& machine) {
  // golden_filename() is "plans_<slug>.golden".
  const std::string file = re::verify::golden_filename(machine.name);
  return file.substr(6, file.size() - 6 - 7);
}

}  // namespace perfbench
