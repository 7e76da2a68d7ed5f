// mum CLI entry point (see cli.h for the command set).
#include <iostream>

#include "cli.h"

int main(int argc, char** argv) {
  const int code = mum::cli::run(argc, argv, std::cout, std::cerr);
  // A full disk under a redirected stdout only shows at flush time: lost
  // report bytes are an I/O failure, not a success.
  if (!std::cout.flush()) {
    std::cerr << "cannot write stdout\n";
    return mum::cli::kExitFatal;
  }
  return code;
}
