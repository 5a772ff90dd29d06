"""One fresh-interpreter set-up: import the package, load the native
kernels, compute ``code_version()``.  Prints the CPU seconds of each
step as JSON; ``run.py`` takes the whole process's CPU from the OS."""

import json
import time

start = time.process_time()
import repro.runner  # noqa: E402

imported = time.process_time()
from repro.utils import native  # noqa: E402

loaded = native.available()
native_done = time.process_time()
repro.runner.code_version()
done = time.process_time()
print(json.dumps({"setup.import_s": imported - start,
                  "setup.native_load_s": native_done - imported,
                  "setup.code_version_s": done - native_done,
                  "native": loaded}))
