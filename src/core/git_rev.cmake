# Build-time run provenance: reads the git revision of SRC_DIR and whether
# its working tree differs from it, and writes them to OUT_FILE as
# LRS_GIT_SHA / LRS_GIT_DIRTY. The file is rewritten only when either
# changed, so an unchanged tree recompiles nothing. Builds outside a git
# checkout record "unknown" and not dirty.
#
#   cmake -DSRC_DIR=<dir> -DOUT_FILE=<header> -P git_rev.cmake
execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY "${SRC_DIR}"
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
)
set(dirty false)
if(sha)
  execute_process(
    COMMAND git status --porcelain
    WORKING_DIRECTORY "${SRC_DIR}"
    OUTPUT_VARIABLE status
    ERROR_QUIET
  )
  if(status)
    set(dirty true)
  endif()
else()
  set(sha unknown)
endif()

set(content "#define LRS_GIT_SHA \"${sha}\"\n#define LRS_GIT_DIRTY ${dirty}\n")
set(old "")
if(EXISTS "${OUT_FILE}")
  file(READ "${OUT_FILE}" old)
endif()
if(NOT "${old}" STREQUAL "${content}")
  file(WRITE "${OUT_FILE}" "${content}")
endif()
