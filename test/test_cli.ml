(* Usage errors of the scs binary: out-of-range process counts, run
   and seed counts and exploration budgets are rejected by the argument parser
   (cmdliner's exit status 124 and a message naming the option) instead
   of failing inside a run or reporting a vacuous result. *)

let scs =
  List.fold_left Filename.concat (Filename.dirname Sys.executable_name) [ ".."; "bin"; "scs.exe" ]

(* Exit status and stderr of one invocation; stdout is discarded. *)
let run args =
  let err = Filename.temp_file "scs-cli" ".err" in
  let code =
    Sys.command (Filename.quote_command scs args ~stdout:Filename.null ~stderr:err)
  in
  let ic = open_in_bin err in
  let msg = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove err;
  (code, msg)

let test_bad_counts_are_usage_errors () =
  if not (Sys.file_exists scs) then Alcotest.failf "%s not built" scs;
  List.iter
    (fun (args, expect) ->
      let l = String.concat " " args in
      let code, msg = run args in
      Alcotest.(check int) (l ^ ": exit status") 124 code;
      if not (Test_recovery.contains msg expect) then Alcotest.failf "%s: stderr %S lacks %S" l msg expect)
    [
      ([ "fuzz"; "-n"; "0"; "--workload"; "splitter" ], "0 is not in 1..62");
      ([ "difffuzz"; "-n"; "63"; "--workload"; "splitter" ], "63 is not in 1..62");
      ([ "stats"; "-n"; "0" ], "0 is not in 1..62");
      ([ "stats"; "-n"; "70" ], "70 is not in 1..62");
      ([ "stats"; "--ns"; "2,0" ], "0 is not in 1..62");
      ([ "stats"; "--runs"; "0" ], "0 is below 1");
      ([ "fuzz"; "--workload"; "splitter"; "--runs"; "0" ], "0 is below 1");
      ([ "difffuzz"; "--workload"; "splitter"; "--runs"; "0" ], "0 is below 1");
      ([ "explore"; "-n"; "3"; "--budget"; "0" ], "0 is below 1");
      ([ "simulate"; "-n"; "0" ], "0 is not in 1..62");
      ([ "check"; "--seeds"; "0" ], "0 is below 1");
    ];
  (* the bounds themselves are accepted *)
  List.iter
    (fun args ->
      let code, msg = run args in
      Alcotest.(check int) (String.concat " " args ^ ": exit status " ^ msg) 0 code)
    [
      [ "stats"; "--target"; "a1"; "-n"; "1"; "--runs"; "1" ];
      [ "stats"; "--target"; "a1"; "--ns"; "62"; "--runs"; "1" ];
      [ "fuzz"; "--workload"; "splitter"; "-n"; "1"; "--runs"; "1" ];
      [ "difffuzz"; "--workload"; "splitter"; "-n"; "1"; "--runs"; "1" ];
      [ "explore"; "-n"; "2"; "--budget"; "1" ];
      [ "check"; "--seeds"; "1" ];
    ]

let tests =
  [
    Alcotest.test_case "out-of-range -n and --runs are usage errors" `Quick
      test_bad_counts_are_usage_errors;
  ]
