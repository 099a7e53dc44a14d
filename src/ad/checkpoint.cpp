#include "ad/checkpoint.hpp"

#include <fstream>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

namespace np::ad {

void save_parameters(const std::vector<Parameter*>& parameters, std::ostream& out) {
  out << std::setprecision(17);
  for (const Parameter* p : parameters) {
    if (p->name.empty() || p->name.find_first_of(" \t\n") != std::string::npos) {
      throw std::invalid_argument("save_parameters: parameter name '" + p->name +
                                  "' is empty or contains whitespace");
    }
    out << "param " << p->name << " " << p->value.rows() << " " << p->value.cols();
    for (double v : p->value.flat()) out << " " << v;
    out << "\n";
  }
}

void load_parameters(const std::vector<Parameter*>& parameters, std::istream& in) {
  std::map<std::string, Parameter*> by_name;
  for (Parameter* p : parameters) {
    if (!by_name.emplace(p->name, p).second) {
      throw std::invalid_argument("load_parameters: duplicate name " + p->name);
    }
  }
  std::set<std::string> seen;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream is(line);
    std::string kind;
    if (!(is >> kind)) continue;
    if (kind != "param") {
      throw std::runtime_error("load_parameters: bad record at line " +
                               std::to_string(line_no));
    }
    std::string name;
    std::size_t rows = 0, cols = 0;
    if (!(is >> name >> rows >> cols)) {
      throw std::runtime_error("load_parameters: truncated header at line " +
                               std::to_string(line_no));
    }
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      throw std::runtime_error("load_parameters: unknown parameter '" + name + "'");
    }
    Parameter& p = *it->second;
    if (p.value.rows() != rows || p.value.cols() != cols) {
      throw std::runtime_error("load_parameters: shape mismatch for '" + name + "'");
    }
    ++p.version;
    for (double& v : p.value.flat()) {
      if (!(is >> v)) {
        throw std::runtime_error("load_parameters: truncated values for '" + name +
                                 "'");
      }
    }
    seen.insert(name);
  }
  if (seen.size() != by_name.size()) {
    throw std::runtime_error("load_parameters: checkpoint is missing parameters");
  }
}

void save_parameters_file(const std::vector<Parameter*>& parameters,
                          const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  save_parameters(parameters, out);
}

void load_parameters_file(const std::vector<Parameter*>& parameters,
                          const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  load_parameters(parameters, in);
}

}  // namespace np::ad
