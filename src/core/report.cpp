#include "core/report.h"

#include <sstream>

#include "support/table.h"

namespace selcache::core {

std::string format_figure(const std::string& title,
                          const std::vector<ImprovementRow>& rows) {
  TextTable t({"Benchmark", "Category", "Pure HW", "Pure SW", "Combined",
               "Selective"});
  for (const auto& row : rows) {
    t.add_row({row.benchmark, to_string(row.category),
               TextTable::num(row.pct.at(Version::PureHardware)),
               TextTable::num(row.pct.at(Version::PureSoftware)),
               TextTable::num(row.pct.at(Version::Combined)),
               TextTable::num(row.pct.at(Version::Selective))});
  }

  std::ostringstream os;
  os << "== " << title << " ==\n" << t.str();

  TextTable avg({"Average over", "Pure HW", "Pure SW", "Combined",
                 "Selective"});
  const auto add_avg = [&](const std::string& label,
                           const workloads::Category* f) {
    avg.add_row({label,
                 TextTable::num(average_improvement(rows,
                                                    Version::PureHardware, f)),
                 TextTable::num(average_improvement(rows,
                                                    Version::PureSoftware, f)),
                 TextTable::num(average_improvement(rows, Version::Combined,
                                                    f)),
                 TextTable::num(average_improvement(rows, Version::Selective,
                                                    f))});
  };
  const workloads::Category reg = workloads::Category::Regular;
  const workloads::Category irr = workloads::Category::Irregular;
  const workloads::Category mix = workloads::Category::Mixed;
  add_avg("all 13", nullptr);
  add_avg("regular", &reg);
  add_avg("irregular", &irr);
  add_avg("mixed", &mix);
  os << avg.str();
  return os.str();
}

std::string figure_csv(const std::vector<ImprovementRow>& rows) {
  std::ostringstream os;
  os << "benchmark,category,pure_hw,pure_sw,combined,selective\n";
  for (const auto& row : rows) {
    os << csv_field(row.benchmark) << ',' << to_string(row.category) << ','
       << TextTable::num(row.pct.at(Version::PureHardware)) << ','
       << TextTable::num(row.pct.at(Version::PureSoftware)) << ','
       << TextTable::num(row.pct.at(Version::Combined)) << ','
       << TextTable::num(row.pct.at(Version::Selective)) << '\n';
  }
  return os.str();
}

std::string figure_jsonl(const std::vector<ImprovementRow>& rows) {
  std::ostringstream os;
  for (const auto& row : rows) {
    os << "{\"benchmark\":\"" << row.benchmark << "\",\"category\":\""
       << to_string(row.category) << "\",\"pure_hw\":"
       << TextTable::num(row.pct.at(Version::PureHardware)) << ",\"pure_sw\":"
       << TextTable::num(row.pct.at(Version::PureSoftware)) << ",\"combined\":"
       << TextTable::num(row.pct.at(Version::Combined)) << ",\"selective\":"
       << TextTable::num(row.pct.at(Version::Selective)) << "}\n";
  }
  return os.str();
}

support::WriteStatus write_text_file_status(const std::string& path,
                                            const std::string& content) {
  return support::write_file_atomic(path, content);
}

bool write_text_file(const std::string& path, const std::string& content) {
  return write_text_file_status(path, content).ok();
}

std::string format_machine(const MachineConfig& m) {
  const auto& h = m.hierarchy;
  TextTable t({"Parameter", "Value"});
  const auto cache_str = [](const memsys::CacheConfig& c) {
    return std::to_string(c.size_bytes / 1024) + "K, " +
           std::to_string(c.assoc) + "-way, " +
           std::to_string(c.block_size) + "B blocks, " +
           std::to_string(c.latency) + "-cycle";
  };
  t.add_row({"Issue width", std::to_string(m.cpu.issue_width)});
  t.add_row({"L1 (data)", cache_str(h.l1d)});
  t.add_row({"L1 (instruction)", cache_str(h.l1i)});
  t.add_row({"L2", cache_str(h.l2)});
  t.add_row({"Memory access time",
             std::to_string(h.mem.access_latency) + " cycles"});
  t.add_row({"Memory bus width", std::to_string(h.mem.bus_width) + " bytes"});
  t.add_row({"Memory ports", std::to_string(m.cpu.memory_ports)});
  t.add_row({"RUU entries", std::to_string(m.cpu.ruu_entries)});
  t.add_row({"LSQ entries", std::to_string(m.cpu.lsq_entries)});
  t.add_row({"Branch prediction",
             "bi-modal with " + std::to_string(m.cpu.bimodal_entries) +
                 " entries"});
  t.add_row({"TLB (data)", std::to_string(h.dtlb.entries) + " entries, " +
                               std::to_string(h.dtlb.assoc) + "-way"});
  t.add_row({"TLB (instruction)",
             std::to_string(h.itlb.entries) + " entries, " +
                 std::to_string(h.itlb.assoc) + "-way"});
  return "== " + m.name + " ==\n" + t.str();
}

}  // namespace selcache::core
