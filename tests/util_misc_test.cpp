#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/ascii_plot.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"

#if defined(__SANITIZE_THREAD__)
#define FLOWGEN_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FLOWGEN_TSAN 1
#endif
#endif

namespace flowgen::util {
namespace {

TEST(CliTest, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--flows=500", "--design=alu16"};
  Cli cli(3, argv);
  EXPECT_EQ(cli.get_int("flows", 0), 500);
  EXPECT_EQ(cli.get("design", ""), "alu16");
}

TEST(CliTest, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--flows", "123"};
  Cli cli(3, argv);
  EXPECT_EQ(cli.get_int("flows", 0), 123);
}

TEST(CliTest, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--full"};
  Cli cli(2, argv);
  EXPECT_TRUE(cli.get_bool("full", false));
  EXPECT_TRUE(cli.full_scale());
}

TEST(CliTest, FallbackWhenMissing) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get_int("flows", 77), 77);
  EXPECT_FALSE(cli.has("flows"));
  EXPECT_DOUBLE_EQ(cli.get_double("lr", 0.5), 0.5);
}

TEST(CliTest, BoolSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=YES", "--d=off"};
  Cli cli(5, argv);
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_FALSE(cli.get_bool("d", true));
}

TEST(CsvTest, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvTest, WritesHeaderAndRows) {
  const std::string path = testing::TempDir() + "/csv_test.csv";
  {
    CsvWriter csv(path, {"x", "y"});
    csv.row({1.0, 2.5});
    csv.row({3.0, 4.0});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5");
}

TEST(CsvTest, RejectsArityMismatch) {
  const std::string path = testing::TempDir() + "/csv_arity.csv";
  CsvWriter csv(path, {"a", "b", "c"});
  EXPECT_THROW(csv.row({1.0}), std::runtime_error);
}

TEST(AsciiPlotTest, ScatterContainsGlyphsAndLegend) {
  Series s;
  s.name = "cloud";
  s.glyph = 'o';
  s.xs = {0, 1, 2, 3};
  s.ys = {0, 1, 4, 9};
  PlotOptions opt;
  opt.title = "test plot";
  const std::string out = scatter_plot(std::vector<Series>{s}, opt);
  EXPECT_NE(out.find("test plot"), std::string::npos);
  EXPECT_NE(out.find('o'), std::string::npos);
  EXPECT_NE(out.find("cloud"), std::string::npos);
}

TEST(AsciiPlotTest, EmptySeries) {
  PlotOptions opt;
  EXPECT_EQ(scatter_plot({}, opt), "(empty plot)\n");
}

TEST(AsciiPlotTest, HistogramBarsSumToCount) {
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(i % 10);
  PlotOptions opt;
  const std::string out = histogram_plot(xs, 5, opt);
  EXPECT_NE(out.find('#'), std::string::npos);
}

TEST(LogTest, ChildForkedBesideALoggingThreadCanLog) {
#ifdef FLOWGEN_TSAN
  GTEST_SKIP() << "fork from a multi-threaded process under TSan";
#endif
  // A child forked while another thread holds the log mutex must still be
  // able to log (loopback workers are respawned beside a logging event
  // loop). Each child logs one line and exits; one that does not exit
  // within 2 s is stuck on an inherited lock.
  const int saved_stderr = ::dup(STDERR_FILENO);
  const int devnull = ::open("/dev/null", O_WRONLY);
  ASSERT_GE(saved_stderr, 0);
  ASSERT_GE(devnull, 0);
  ::dup2(devnull, STDERR_FILENO);
  std::atomic<bool> stop{false};
  std::thread logger([&stop] {
    while (!stop.load()) log_message(LogLevel::kError, "parent tick");
  });
  int hung = 0;
  for (int i = 0; i < 50; ++i) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      log_message(LogLevel::kError, "child");
      ::_exit(0);
    }
    const auto t0 = std::chrono::steady_clock::now();
    int status = 0;
    while (::waitpid(pid, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() - t0 > std::chrono::seconds(2)) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        ++hung;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  stop = true;
  logger.join();
  ::dup2(saved_stderr, STDERR_FILENO);
  ::close(saved_stderr);
  ::close(devnull);
  EXPECT_EQ(hung, 0) << "children stuck on an inherited log mutex";
}

}  // namespace
}  // namespace flowgen::util
