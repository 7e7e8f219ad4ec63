(* The `scs` command-line interface.

   scs list                          enumerate experiments
   scs experiment T1 [T2 ...]        run experiments by id
   scs simulate --algo=... -n 4 ...  one simulated TAS run with a trace dump
   scs consensus --algo=... -n 4     one simulated consensus run
   scs check --algo=... --seeds 500  randomized safety checking
   scs explore --algo=... -n 3 --por exhaustive bounded model checking
   scs fuzz --workload=...           schedule fuzzing with shrunk .scsrepro output
   scs difffuzz --workload=...       atomic vs per-object-SC differential fuzzing
   scs replay FILE...                re-run .scsrepro artifacts
   scs stats --target=...            observability-instrumented step statistics
   scs load --workload=...           native multicore closed-loop benchmark *)

open Cmdliner
open Scs_spec
open Scs_history
open Scs_sim
open Scs_workload

(* ---- shared args ------------------------------------------------------ *)

(* An integer in [lo, hi]: out-of-range values are usage errors, not
   exceptions (or vacuous runs) deep inside a command *)
let int_in ~lo ~hi =
  let parse s =
    match int_of_string_opt s with
    | Some v when lo <= v && v <= hi -> Ok v
    | Some _ when hi = max_int -> Error (`Msg (Printf.sprintf "%s is below %d" s lo))
    | Some _ -> Error (`Msg (Printf.sprintf "%s is not in %d..%d" s lo hi))
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let procs_conv = int_in ~lo:1 ~hi:Sim.max_processes
let positive_conv = int_in ~lo:1 ~hi:max_int

let n_arg =
  Arg.(
    value & opt procs_conv 4
    & info [ "n"; "processes" ] ~docv:"N"
        ~doc:(Printf.sprintf "Number of processes (1..%d)." Sim.max_processes))

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let tas_algo_arg =
  let algos =
    [
      ("speculative", Tas_run.Composed);
      ("strict", Tas_run.Strict);
      ("solo-fast", Tas_run.Solo_fast);
      ("hardware", Tas_run.Hardware);
      ("tournament", Tas_run.Tournament);
    ]
  in
  Arg.(
    value
    & opt (enum algos) Tas_run.Composed
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:"TAS implementation: $(b,speculative) (paper A1∘A2), $(b,strict), \
              $(b,solo-fast), $(b,hardware) or $(b,tournament).")

let policy_arg =
  let policies = [ ("random", `Random); ("sequential", `Sequential); ("solo", `Solo) ] in
  Arg.(
    value
    & opt (enum policies) `Random
    & info [ "policy" ] ~docv:"POLICY" ~doc:"Schedule: $(b,random), $(b,sequential) or $(b,solo).")

let make_policy = function
  | `Random -> Policy.random
  | `Sequential -> fun _ -> Policy.sequential ()
  | `Solo -> fun _ -> Policy.solo 0

let backend_conv =
  let parse s =
    match Scs_prims.Backend.of_string s with
    | Ok Scs_prims.Backend.Native ->
        Error
          (`Msg
             (Printf.sprintf
                "native is not a simulator backend (use `scs load'); valid backends \
                 here: %s"
                (String.concat ", "
                   (List.filter
                      (fun n -> n <> "native")
                      Scs_prims.Backend.valid_names))))
    | Ok b -> Ok b
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf b -> Format.pp_print_string ppf (Scs_prims.Backend.name b))

let backend_arg =
  Arg.(
    value
    & opt backend_conv Scs_prims.Backend.default
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Simulator primitive backend: $(b,sim-lin) (atomic registers) or \
           $(b,sim-sc)[:LAG] (per-object sequentially-consistent registers that may \
           serve reads up to LAG writes stale; RMW objects stay atomic).")

(* -n for commands that run many workloads: each defaults to its own *)
let n_opt_arg =
  Arg.(
    value & opt (some procs_conv) None
    & info [ "n"; "processes" ] ~docv:"N"
        ~doc:(Printf.sprintf "Process count, 1..%d (default: per workload)." Sim.max_processes))

let out_arg =
  Arg.(
    value & opt string "."
    & info [ "out" ] ~docv:"DIR" ~doc:"Directory for emitted .scsrepro artifacts.")

let no_shrink_arg =
  Arg.(value & flag & info [ "no-shrink" ] ~doc:"Emit raw failing schedules unshrunk.")

(* --json FILE and --run-id ID, as one term: the optional save of a
   command's rows as a bench trajectory *)
let trajectory_arg ~run_id =
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the rows as a bench-trajectory JSON file (schema \
                scs.bench.trajectory/1, validated on write; see docs/metrics.md).")
  in
  let run_id_arg =
    Arg.(
      value & opt string run_id
      & info [ "run-id" ] ~docv:"ID" ~doc:"The $(b,run) field of the emitted JSON.")
  in
  let save json run ~seed records =
    Option.iter
      (fun path ->
        Scs_obs.Trajectory.save path { Scs_obs.Trajectory.run; seed; records };
        Printf.printf "\nwrote %s (%d records, schema %s)\n" path (List.length records)
          Scs_obs.Trajectory.schema_version)
      json
  in
  Term.(const save $ json_arg $ run_id_arg)

(* A fuzz workload by name, or every workload expected to hold *)
let select_workloads = function
  | "all" -> List.filter (fun w -> not w.Fuzz_run.expect_failures) Fuzz_run.all
  | name -> (
      match Fuzz_run.find name with
      | Some w -> [ w ]
      | None ->
          Printf.eprintf "unknown workload %s (try `scs fuzz --list-workloads')\n" name;
          exit 1)

let print_shrink (st : Shrink.stats) =
  Printf.printf "shrunk %d -> %d turns (%d replays, %d reductions, %d drifts, %d rounds)\n"
    st.Shrink.orig_len st.Shrink.final_len st.Shrink.attempts st.Shrink.accepted
    st.Shrink.drifted st.Shrink.rounds

(* Repro artifacts land under a user-supplied --out directory that need
   not exist yet. Returns the file's path. *)
let save_repro ~out file repro =
  let rec ensure_dir d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      ensure_dir (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  let path = Filename.concat out file in
  ensure_dir out;
  Fuzz.Repro.save path repro;
  path

(* ---- list -------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Scs_experiments.Registry.t) ->
        Printf.printf "%-4s %s\n" e.Scs_experiments.Registry.id e.Scs_experiments.Registry.title)
      Scs_experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the reproduction experiments.")
    Term.(const run $ const ())

(* ---- experiment -------------------------------------------------------- *)

let experiment_cmd =
  let ids_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).")
  in
  let run ids =
    match ids with
    | [] -> Scs_experiments.Registry.run_all ()
    | ids ->
        List.iter
          (fun id ->
            match Scs_experiments.Registry.find id with
            | Some e -> e.Scs_experiments.Registry.run ()
            | None -> Printf.eprintf "unknown experiment id %s (try `scs list')\n" id)
          ids
  in
  Cmd.v (Cmd.info "experiment" ~doc:"Run reproduction experiments by id.")
    Term.(const run $ ids_arg)

(* ---- simulate ----------------------------------------------------------- *)

let show_resp = function Objects.Winner -> "winner" | Objects.Loser -> "loser"

let show_stage = function
  | Some Scs_tas.One_shot.Fast -> "registers"
  | Some Scs_tas.One_shot.Fallback -> "hardware"
  | None -> "-"

let simulate_cmd =
  let trace_arg =
    Arg.(value & flag & info [ "trace" ] ~doc:"Dump the shared-memory step trace.")
  in
  let run n seed algo policy backend trace =
    let r = Tas_run.one_shot ~seed ~backend ~n ~algo ~policy:(make_policy policy) () in
    Printf.printf "algorithm: %s, n=%d, seed=%d, backend=%s\n\n" (Tas_run.algo_name algo) n
      seed
      (Scs_prims.Backend.name backend);
    List.iter
      (fun (o : Tas_run.op_record) ->
        Printf.printf "p%-2d -> %-6s via %-9s steps=%-3d rmws=%d raws=%d [%d,%d]\n"
          o.Tas_run.pid (show_resp o.Tas_run.resp) (show_stage o.Tas_run.stage) o.Tas_run.steps
          o.Tas_run.rmws o.Tas_run.raws o.Tas_run.invoke_ts o.Tas_run.resp_ts)
      r.Tas_run.ops;
    let ops = Trace.operations r.Tas_run.outer in
    Printf.printf "\nlinearizable (strict): %b\n" (Tas_lin.check_one_shot ops);
    Printf.printf "safely composable (Definition 2): %b\n"
      (Scs_composable.Tas_interp.is_safely_composable r.Tas_run.outer);
    Printf.printf "total steps: %d, registers: %d, rmw objects: %d\n"
      (Sim.total_steps r.Tas_run.sim) r.Tas_run.registers r.Tas_run.rmw_objects;
    if trace then begin
      print_newline ();
      Array.iter (fun e -> print_endline (Mem_event.to_string e)) r.Tas_run.mem
    end
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run one simulated one-shot TAS execution and check it.")
    Term.(const run $ n_arg $ seed_arg $ tas_algo_arg $ policy_arg $ backend_arg $ trace_arg)

(* ---- consensus ---------------------------------------------------------- *)

let consensus_cmd =
  let algo_arg =
    let algos =
      [
        ("split", Cons_run.Split);
        ("bakery", Cons_run.Bakery);
        ("cas", Cons_run.Cas);
        ("chain", Cons_run.Chain3);
      ]
    in
    Arg.(
      value
      & opt (enum algos) Cons_run.Split
      & info [ "algo" ] ~docv:"ALGO"
          ~doc:"Consensus: $(b,split), $(b,bakery), $(b,cas) or $(b,chain).")
  in
  let run n seed algo policy backend =
    let r = Cons_run.run ~seed ~backend ~n ~algo ~policy:(make_policy policy) () in
    Printf.printf "algorithm: %s, n=%d, seed=%d, backend=%s\n\n" (Cons_run.algo_name algo) n
      seed
      (Scs_prims.Backend.name backend);
    List.iter
      (fun (o : Cons_run.op) ->
        let outcome =
          match o.Cons_run.outcome with
          | Scs_composable.Outcome.Commit (Some d) -> Printf.sprintf "commit %d" d
          | Scs_composable.Outcome.Commit None -> "commit ⊥"
          | Scs_composable.Outcome.Abort (Some w) -> Printf.sprintf "abort (saw %d)" w
          | Scs_composable.Outcome.Abort None -> "abort ⊥"
        in
        Printf.printf "p%-2d proposes %d -> %-16s steps=%d\n" o.Cons_run.pid o.Cons_run.proposal
          outcome o.Cons_run.steps)
      r.Cons_run.ops;
    Printf.printf "\nagreement: %b, validity: %b\n" r.Cons_run.agreement r.Cons_run.validity
  in
  Cmd.v
    (Cmd.info "consensus" ~doc:"Run one simulated abortable-consensus execution.")
    Term.(const run $ n_arg $ seed_arg $ algo_arg $ policy_arg $ backend_arg)

(* ---- check --------------------------------------------------------------- *)

let check_cmd =
  let seeds_arg =
    Arg.(
      value & opt positive_conv 500 & info [ "seeds" ] ~docv:"K" ~doc:"Number of random schedules.")
  in
  let run n algo seeds =
    let failures = ref 0 in
    for seed = 1 to seeds do
      let r = Tas_run.one_shot ~seed ~n ~algo ~policy:Policy.random () in
      let ops = Trace.operations r.Tas_run.outer in
      let strict_ok = Tas_lin.check_one_shot ops in
      let paper_ok = Scs_composable.Tas_interp.is_safely_composable r.Tas_run.outer in
      let winners = List.length (Tas_run.winners r) in
      let ok =
        winners = 1
        && paper_ok
        && (strict_ok || algo = Tas_run.Composed)
        (* the paper variant is only speculatively linearizable: F-1 *)
      in
      if not ok then begin
        incr failures;
        Printf.printf "seed %d: winners=%d strict=%b paper=%b\n" seed winners strict_ok paper_ok
      end
    done;
    Printf.printf "%s: %d/%d schedules failed\n" (Tas_run.algo_name algo) !failures seeds;
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Randomized safety checking of a TAS implementation.")
    Term.(const run $ n_arg $ tas_algo_arg $ seeds_arg)

(* ---- explore -------------------------------------------------------------- *)

let explore_cmd =
  let budget_arg =
    Arg.(
      value & opt positive_conv 100_000
      & info [ "budget" ] ~docv:"K"
          ~doc:"Maximum number of terminated runs to enumerate (at least 1).")
  in
  let por_arg =
    Arg.(
      value & flag
      & info [ "por" ]
          ~doc:
            "Enable sleep-set partial-order reduction: explore one representative \
             schedule per class of commuting reorderings.")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"D"
          ~doc:"Fan the exploration out over $(docv) OCaml domains.")
  in
  let run n algo budget por domains backend =
    let outcome, bad =
      Tas_run.explore_one_shot ~max_schedules:budget ~por ~domains ~backend ~n ~algo ()
    in
    Printf.printf
      "%s, n=%d, backend=%s: explored %d schedules%s; pruned %d; %d truncated runs; %d \
       turns in %.2fs; non-linearizable: %d\n"
      (Tas_run.algo_name algo) n
      (Scs_prims.Backend.name backend)
      outcome.Explore.schedules
      (if outcome.Explore.truncated then " (budget-truncated)" else " (complete)")
      outcome.Explore.pruned outcome.Explore.truncated_runs outcome.Explore.steps_replayed
      outcome.Explore.wall_s bad;
    if bad > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Exhaustively enumerate interleavings of a one-shot TAS run and check strict           linearizability on each (bounded model checking).")
    Term.(
      const run $ n_arg $ tas_algo_arg $ budget_arg $ por_arg $ domains_arg $ backend_arg)

(* ---- fuzz ------------------------------------------------------------------ *)

let print_fuzz_report (r : Fuzz.report) =
  let rows =
    List.map
      (fun (s : Fuzz.policy_stats) ->
        [
          s.Fuzz.s_policy;
          string_of_int s.Fuzz.s_runs;
          Printf.sprintf "%.0f" (Fuzz.schedules_per_sec s);
          (* generation and verification throughput, separately: wall
             time spent producing schedules vs CPU time spent in checks *)
          Printf.sprintf "%.0f" (Fuzz.gen_per_sec s);
          Printf.sprintf "%.0f" (Fuzz.check_per_sec s);
          Printf.sprintf "%.0f" s.Fuzz.s_step_p50;
          Printf.sprintf "%.0f" s.Fuzz.s_step_p99;
          string_of_int s.Fuzz.s_max_contention;
          string_of_int s.Fuzz.s_violations;
          string_of_int s.Fuzz.s_skipped;
          string_of_int s.Fuzz.s_checked_large;
          (match s.Fuzz.s_first_failure with
          | Some (run, t) -> Printf.sprintf "run %d (%.1f ms)" run (1000. *. t)
          | None -> "-");
        ])
      r.Fuzz.r_stats
  in
  Scs_util.Table.print
    ~title:(Printf.sprintf "fuzz %s n=%d seed=%d" r.Fuzz.r_workload r.Fuzz.r_n r.Fuzz.r_seed)
    ~header:
      [
        "policy"; "runs"; "sched/s"; "gen/s"; "check/s"; "p50 st"; "p99 st"; "maxC";
        "viol"; "skip"; "large"; "first failure";
      ]
    rows

let fuzz_cmd =
  let workload_arg =
    Arg.(
      value & opt string "all"
      & info [ "workload" ] ~docv:"NAME"
          ~doc:
            "Workload to fuzz (see $(b,--list-workloads)); $(b,all) fuzzes every workload \
             that is expected to hold.")
  in
  let list_arg =
    Arg.(value & flag & info [ "list-workloads" ] ~doc:"List fuzz workloads and exit.")
  in
  let runs_arg =
    Arg.(
      value & opt positive_conv 1000
      & info [ "runs" ] ~docv:"K" ~doc:"Schedules per policy (at least 1).")
  in
  let budget_arg =
    Arg.(
      value & opt (some float) None
      & info [ "budget" ] ~docv:"SECONDS" ~doc:"Wall-clock budget per policy.")
  in
  let max_viol_arg =
    Arg.(
      value & opt int 1
      & info [ "max-violations" ] ~docv:"M" ~doc:"Stop a workload after $(docv) violations.")
  in
  let gen_domains_arg =
    Arg.(
      value & opt int 1
      & info [ "gen-domains" ] ~docv:"D"
          ~doc:
            "Generate and check schedules on $(docv) domains in parallel, each with \
             its own seed stream and simulator (1 = the sequential stream, fully \
             deterministic).")
  in
  let policy_arg =
    let portfolio_conv =
      let parse s =
        match Fuzz.portfolio_of_string s with
        | Some p -> Ok (s, p)
        | None ->
            Error
              (`Msg
                 (Printf.sprintf "unknown policy portfolio %S (valid: %s)" s
                    (String.concat ", " Fuzz.portfolio_names)))
      in
      Arg.conv (parse, fun ppf (s, _) -> Format.pp_print_string ppf s)
    in
    Arg.(
      value
      & opt portfolio_conv ("default", Fuzz.default_portfolio)
      & info [ "policy" ] ~docv:"PORTFOLIO"
          ~doc:
            (Printf.sprintf
               "Scheduler-policy portfolio to fuzz under: %s. $(b,crash-recover) \
                injects crashes that usually recover (and sometimes re-crash the \
                recovered incarnation), exploring recover-during-contention \
                interleavings."
               (String.concat ", " Fuzz.portfolio_names)))
  in
  let run workload list_workloads n_opt runs budget max_violations seed backend
      (_, policies) out no_shrink gen_domains =
    if list_workloads then begin
      List.iter
        (fun (w : Fuzz_run.t) ->
          Printf.printf "%-16s n=%d%s  %s\n" w.Fuzz_run.name w.Fuzz_run.default_n
            (if w.Fuzz_run.expect_failures then " [expect-failures]" else "")
            w.Fuzz_run.describe)
        Fuzz_run.all;
      exit 0
    end;
    let workloads = select_workloads workload in
    let found = ref 0 in
    List.iter
      (fun (w : Fuzz_run.t) ->
        let n = Option.value n_opt ~default:w.Fuzz_run.default_n in
        let report =
          Fuzz_run.fuzz ~backend ~policies ?time_budget:budget ~runs ~max_violations
            ~seed ~gen_domains w ~n
        in
        print_fuzz_report report;
        List.iter
          (fun (v : Fuzz.violation) ->
            incr found;
            Printf.printf "\nviolation in %s under %s (run seed %d): %s\n" v.Fuzz.v_workload
              v.Fuzz.v_policy v.Fuzz.v_seed v.Fuzz.v_error;
            let schedule, crashes =
              if no_shrink then (v.Fuzz.v_schedule, v.Fuzz.v_crashes)
              else begin
                let (sched, crs), st =
                  Fuzz_run.shrink ~backend w ~n ~schedule:v.Fuzz.v_schedule
                    ~crashes:v.Fuzz.v_crashes
                in
                print_shrink st;
                (sched, crs)
              end
            in
            print_endline (Fuzz.render_lanes ~n ~schedule ~crashes ());
            let repro =
              { (Fuzz.Repro.of_violation v) with Fuzz.Repro.schedule; crashes }
            in
            let path =
              save_repro ~out
                (Printf.sprintf "%s-n%d-%d.scsrepro" v.Fuzz.v_workload n v.Fuzz.v_seed)
                repro
            in
            Printf.printf "repro written to %s\n" path)
          report.Fuzz.r_violations;
        print_newline ())
      workloads;
    if !found > 0 then exit 2
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Randomized schedule fuzzing under a policy portfolio; failing runs are shrunk to \
          minimal deterministic schedules and written as .scsrepro artifacts (exit status 2 \
          when violations were found).")
    Term.(
      const run $ workload_arg $ list_arg $ n_opt_arg $ runs_arg $ budget_arg $ max_viol_arg
      $ seed_arg $ backend_arg $ policy_arg $ out_arg $ no_shrink_arg $ gen_domains_arg)

(* ---- stats ----------------------------------------------------------------- *)

let stats_cmd =
  let target_arg =
    Arg.(
      value & opt string "speculative"
      & info [ "target" ] ~docv:"TARGET"
          ~doc:"Instrumented workload to measure (see $(b,--list-targets)).")
  in
  let list_targets_arg =
    Arg.(value & flag & info [ "list-targets" ] ~doc:"List measurable targets and exit.")
  in
  let ns_arg =
    Arg.(
      value & opt (list procs_conv) []
      & info [ "ns" ] ~docv:"N1,N2,..."
          ~doc:"Sweep process counts (overrides $(b,-n)); one table row and one JSON \
                record per value.")
  in
  let runs_arg =
    Arg.(
      value & opt positive_conv 200
      & info [ "runs" ] ~docv:"K" ~doc:"Seeded simulations per row (at least 1).")
  in
  let crash_prob_arg =
    Arg.(
      value & opt float 0.0
      & info [ "crash-prob" ] ~docv:"P"
          ~doc:"Crash each process with probability $(docv) after 1-15 steps.")
  in
  let solo_arg =
    Arg.(
      value & flag
      & info [ "solo" ]
          ~doc:"Measure one solo run of process 0 instead of a seeded batch (the \
                uncontended cost the paper's complexity claims are stated for).")
  in
  let objects_arg =
    Arg.(
      value & flag
      & info [ "objects" ] ~doc:"Print the per-object step census of the last row.")
  in
  let gen_domains_arg =
    Arg.(
      value & opt int 1
      & info [ "gen-domains" ] ~docv:"G"
          ~doc:
            "Split each batch across $(docv) OCaml domains, each with a pooled \
             simulator and private obs sink, merged deterministically at join.")
  in
  let run target list_targets ns n runs seed policy backend crash_prob solo save_json
      objects gen_domains =
    if list_targets then begin
      List.iter print_endline (Obs_run.target_names ());
      exit 0
    end;
    let target =
      match Obs_run.target_of_string target with
      | Some t -> t
      | None ->
          Printf.eprintf "unknown target %s (try --list-targets)\n" target;
          exit 1
    in
    let ns = if ns = [] then [ n ] else ns in
    let aggs =
      List.map
        (fun n ->
          if solo then Obs_run.solo ~backend target ~n
          else
            Obs_run.measure ~runs ~seed ~backend ~policy:(make_policy policy) ~crash_prob
              ~gen_domains target ~n)
        ns
    in
    let rows =
      List.map
        (fun (a : Obs_run.agg) ->
          [
            string_of_int a.Obs_run.n;
            string_of_int a.Obs_run.runs;
            string_of_int (List.length a.Obs_run.ops);
            Printf.sprintf "%.1f" a.Obs_run.steps.Scs_util.Stats.median;
            Printf.sprintf "%.1f" a.Obs_run.steps.Scs_util.Stats.p99;
            string_of_int (int_of_float a.Obs_run.step_cont.Scs_util.Stats.max);
            string_of_int a.Obs_run.max_interval_contention;
            string_of_int a.Obs_run.aborts;
            string_of_int a.Obs_run.handoffs;
            string_of_int a.Obs_run.crashes;
            Printf.sprintf "%.0f" a.Obs_run.schedules_per_sec;
          ])
        aggs
    in
    Scs_util.Table.print
      ~title:
        (if solo then
           Printf.sprintf "stats %s (solo run of p0)" (Obs_run.target_name target)
         else
           Printf.sprintf "stats %s (%s%s, %d runs/row)"
             (Obs_run.target_name target)
             (match policy with
             | `Random -> "random"
             | `Sequential -> "sequential"
             | `Solo -> "solo-policy")
             (if crash_prob > 0.0 then Printf.sprintf ", crash-prob %.2f" crash_prob
              else "")
             runs)
      ~header:
        [
          "n"; "runs"; "ops"; "p50 steps"; "p99 steps"; "max stepC"; "max ivlC";
          "aborts"; "handoffs"; "crashes"; "sched/s";
        ]
      rows;
    (if objects then
       match List.rev aggs with
       | [] -> ()
       | a :: _ ->
           print_newline ();
           Scs_util.Table.print
             ~title:(Printf.sprintf "per-object step census (n=%d)" a.Obs_run.n)
             ~header:[ "object"; "steps"; "rmws" ]
             (List.map
                (fun (name, steps, rmws) ->
                  [ name; string_of_int steps; string_of_int rmws ])
                a.Obs_run.objects));
    (match (target, List.rev aggs) with
    | Obs_run.Shard, a :: _ ->
        (* group the batch's ops by owning-shard label: the per-shard
           step/contention/abort profiles, and their op-count imbalance *)
        let tbl = Hashtbl.create 8 in
        List.iter
          (fun (m : Scs_obs.Obs.op_metric) ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt tbl m.Scs_obs.Obs.om_label) in
            Hashtbl.replace tbl m.Scs_obs.Obs.om_label (m :: prev))
          a.Obs_run.ops;
        let labels = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
        let counts = List.map (fun l -> List.length (Hashtbl.find tbl l)) labels in
        let rows =
          List.map
            (fun l ->
              let ms = Hashtbl.find tbl l in
              let steps =
                Scs_util.Stats.summarize_ints
                  (Array.of_list (List.map (fun m -> m.Scs_obs.Obs.om_steps) ms))
              in
              let maxc =
                List.fold_left
                  (fun acc m -> max acc m.Scs_obs.Obs.om_step_contention)
                  0 ms
              in
              let aborted =
                List.length (List.filter (fun m -> m.Scs_obs.Obs.om_aborted) ms)
              in
              [
                l;
                string_of_int (List.length ms);
                Printf.sprintf "%.1f" steps.Scs_util.Stats.median;
                Printf.sprintf "%.1f" steps.Scs_util.Stats.p99;
                string_of_int maxc;
                string_of_int aborted;
              ])
            labels
        in
        print_newline ();
        Scs_util.Table.print
          ~title:(Printf.sprintf "per-shard profiles (n=%d, %d runs)" a.Obs_run.n a.Obs_run.runs)
          ~header:[ "shard"; "ops"; "p50 steps"; "p99 steps"; "max stepC"; "aborted" ]
          rows;
        let mx = List.fold_left max 0 counts
        and mean =
          float_of_int (List.fold_left ( + ) 0 counts)
          /. float_of_int (max 1 (List.length counts))
        in
        if List.length counts > 1 then
          Printf.printf "cross-shard imbalance (max/mean ops): %.2f\n"
            (float_of_int mx /. max 1.0 mean)
    | _ -> ());
    save_json ~seed (List.map Obs_run.to_record aggs)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Measure a workload with the observability sink: per-operation step \
          percentiles, step/interval contention, aborts and switch-value handoffs, \
          optionally emitted as a validated bench-trajectory JSON (docs/metrics.md).")
    Term.(
      const run $ target_arg $ list_targets_arg $ ns_arg $ n_arg $ runs_arg $ seed_arg
      $ policy_arg $ backend_arg $ crash_prob_arg $ solo_arg
      $ trajectory_arg ~run_id:"stats" $ objects_arg $ gen_domains_arg)

(* ---- load ------------------------------------------------------------------ *)

let load_cmd =
  let module L = Scs_load.Load in
  let module Mx = Scs_load.Mix in
  let duration_conv =
    let parse s =
      let len = String.length s in
      let num k = float_of_string_opt (String.sub s 0 (len - k)) in
      let v =
        if len >= 2 && String.sub s (len - 2) 2 = "ms" then
          Option.map (fun f -> f /. 1000.) (num 2)
        else if len >= 1 && s.[len - 1] = 's' then num 1
        else if len >= 1 && s.[len - 1] = 'm' then Option.map (fun f -> f *. 60.) (num 1)
        else float_of_string_opt s
      in
      match v with
      | Some f when f >= 0.0 -> Ok f
      | _ -> Error (`Msg (Printf.sprintf "invalid duration %S (try 500ms, 1s, 2m)" s))
    in
    Arg.conv (parse, fun ppf f -> Format.fprintf ppf "%gs" f)
  in
  let workload_arg =
    Arg.(
      value & opt string "all"
      & info [ "workload" ] ~docv:"NAME"
          ~doc:
            "Workload: a single name ($(b,speculative), $(b,strict-tas), $(b,solo-fast), \
             $(b,one-shot), $(b,hardware), $(b,ttas-lock), $(b,chain)), a family ($(b,tas), \
             $(b,chain)), or $(b,all). The composed universal construction and the sharded \
             service are measured by the repository benchmark ($(b,scsbench)).")
  in
  let domains_arg =
    Arg.(value & opt int 2 & info [ "domains" ] ~docv:"D" ~doc:"OCaml domains driving the loop.")
  in
  let sweep_arg =
    Arg.(
      value & opt (list int) []
      & info [ "sweep" ] ~docv:"D1,D2,..."
          ~doc:"Sweep domain counts (overrides $(b,--domains)); one row per value.")
  in
  let duration_arg =
    Arg.(
      value & opt duration_conv 1.0
      & info [ "duration" ] ~docv:"T" ~doc:"Measured window per cell (e.g. 500ms, 1s, 2m).")
  in
  let warmup_arg =
    Arg.(value & opt duration_conv 0.2 & info [ "warmup" ] ~docv:"T" ~doc:"Unrecorded warmup.")
  in
  let mix_arg =
    Arg.(
      value & opt string "a"
      & info [ "mix" ] ~docv:"PROFILE"
          ~doc:
            "YCSB profile: $(b,a) (50/50 read/update), $(b,b) (95/5), $(b,c) (read-only) or \
             $(b,u) (update-only).")
  in
  let read_ratio_arg =
    Arg.(
      value & opt (some float) None
      & info [ "read-ratio" ] ~docv:"R" ~doc:"Override the profile's read ratio ([0,1]).")
  in
  let keys_arg =
    Arg.(value & opt int 16 & info [ "keys" ] ~docv:"K" ~doc:"Keyspace size (objects per arena).")
  in
  let skew_arg =
    Arg.(
      value
      & opt (enum [ ("zipfian", `Zipfian); ("uniform", `Uniform) ]) `Zipfian
      & info [ "key-skew" ] ~docv:"SKEW" ~doc:"Key popularity: $(b,zipfian) or $(b,uniform).")
  in
  let theta_arg =
    Arg.(value & opt float 0.99 & info [ "theta" ] ~docv:"THETA" ~doc:"Zipfian exponent.")
  in
  let rounds_arg =
    Arg.(
      value & opt int 4096
      & info [ "rounds" ] ~docv:"R" ~doc:"Long-lived TAS round capacity between recycles.")
  in
  let compare_sim_arg =
    Arg.(
      value & flag
      & info [ "compare-sim" ]
          ~doc:
            "Also measure each workload's simulator analog (same n) and print measured \
             hardware abort/handoff rates next to the simulator's contention estimators \
             (experiment T15). Most comparable with $(b,--mix u), since simulator \
             workloads are update-only.")
  in
  let sim_runs_arg =
    Arg.(
      value & opt int 200
      & info [ "sim-runs" ] ~docv:"K" ~doc:"Seeded simulations per comparison cell.")
  in
  let sim_target = function
    | L.Speculative | L.One_shot -> Some (Obs_run.Tas Tas_run.Composed)
    | L.Strict_tas -> Some (Obs_run.Tas Tas_run.Strict)
    | L.Solo_fast -> Some (Obs_run.Tas Tas_run.Solo_fast)
    | L.Hardware -> Some (Obs_run.Tas Tas_run.Hardware)
    | L.Chain -> Some (Obs_run.Cons Cons_run.Chain3)
    | L.Ttas_lock -> None
  in
  let run workload domains sweep duration_s warmup_s mix_name read_ratio keys skew theta
      rounds seed save_json compare_sim sim_runs =
    let workloads =
      match workload with
      | "all" -> L.all_workloads
      | name -> (
          match List.assoc_opt name L.workload_families with
          | Some ws -> ws
          | None -> (
              match L.workload_of_string name with
              | Some w -> [ w ]
              | None ->
                  Printf.eprintf "unknown workload %s\n" name;
                  exit 1))
    in
    let read_ratio =
      match read_ratio with
      | Some r -> r
      | None -> (
          match Mx.profile_of_string mix_name with
          | Some p -> Mx.profile_read_ratio p
          | None ->
              Printf.eprintf "unknown mix profile %s (try a, b, c or u)\n" mix_name;
              exit 1)
    in
    let skew = match skew with `Uniform -> Mx.Uniform | `Zipfian -> Mx.Zipfian theta in
    let mix = Mx.make ~read_ratio ~keys ~skew in
    let ds = if sweep = [] then [ domains ] else sweep in
    let host_cores = Domain.recommended_domain_count () in
    let results =
      List.concat_map
        (fun w ->
          List.map
            (fun d ->
              let cfg =
                {
                  (L.default_cfg ~workload:w ~domains:d) with
                  L.mix;
                  rounds;
                  warmup_s;
                  duration_s;
                  seed;
                }
              in
              let r = L.run cfg in
              Printf.eprintf "  %-12s d=%d  %.0f ops/s\n%!" (L.workload_name w) d
                r.L.r_ops_per_sec;
              r)
            ds)
        workloads
    in
    Scs_util.Table.print
      ~title:
        (Printf.sprintf "load (%s, %gs/cell, %d host cores%s)" (Mx.describe mix) duration_s
           host_cores
           (if host_cores < List.fold_left max 1 ds then ", domains time-share" else ""))
      ~header:
        [
          "workload"; "d"; "ops/s"; "p50 us"; "p99 us"; "p999 us"; "mean us"; "aborts";
          "ab/upd"; "handoffs"; "resets"; "recycles";
        ]
      (List.map
         (fun (r : L.result) ->
           [
             L.workload_name r.L.r_workload;
             string_of_int r.L.r_domains;
             Printf.sprintf "%.0f" r.L.r_ops_per_sec;
             Printf.sprintf "%.2f" r.L.r_p50_us;
             Printf.sprintf "%.2f" r.L.r_p99_us;
             Printf.sprintf "%.2f" r.L.r_p999_us;
             Printf.sprintf "%.2f" r.L.r_mean_us;
             string_of_int r.L.r_aborts;
             Printf.sprintf "%.4f" r.L.r_abort_rate;
             string_of_int r.L.r_handoffs;
             string_of_int r.L.r_resets;
             string_of_int r.L.r_recycles;
           ])
         results);
    if compare_sim then begin
      print_newline ();
      let rows =
        List.filter_map
          (fun (r : L.result) ->
            match sim_target r.L.r_workload with
            | None -> None
            | Some t ->
                let a = Obs_run.measure ~runs:sim_runs ~seed t ~n:r.L.r_domains in
                let ops = List.length a.Obs_run.ops in
                Some
                  [
                    L.workload_name r.L.r_workload;
                    Obs_run.target_name t;
                    string_of_int r.L.r_domains;
                    Printf.sprintf "%.4f" r.L.r_abort_rate;
                    Printf.sprintf "%.4f"
                      (float_of_int a.Obs_run.aborts /. float_of_int (max 1 ops));
                    Printf.sprintf "%.4f"
                      (float_of_int r.L.r_handoffs /. float_of_int (max 1 r.L.r_updates));
                    Printf.sprintf "%.4f"
                      (float_of_int a.Obs_run.handoffs /. float_of_int (max 1 ops));
                    string_of_int a.Obs_run.max_interval_contention;
                  ])
          results
      in
      if rows <> [] then
        Scs_util.Table.print
          ~title:
            (Printf.sprintf
               "native vs simulator (T15: %d sim runs/cell; native rates per update)"
               sim_runs)
          ~header:
            [
              "workload"; "sim target"; "n"; "ab/upd nat"; "ab/op sim"; "ho/upd nat";
              "ho/op sim"; "max ivlC sim";
            ]
          rows
      else print_endline "compare-sim: no simulator analog for the selected workloads"
    end;
    save_json ~seed (List.map L.to_record results)
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Native multicore macro-benchmark: N OCaml 5 domains run a YCSB-style closed loop \
          (configurable read/update mix and key skew) against the paper's objects, \
          reporting throughput, log-bucketed latency percentiles and hardware \
          abort/handoff/reset counters, optionally compared against the simulator's \
          contention estimators and emitted as bench-trajectory JSON.")
    Term.(
      const run $ workload_arg $ domains_arg $ sweep_arg $ duration_arg $ warmup_arg
      $ mix_arg $ read_ratio_arg $ keys_arg $ skew_arg $ theta_arg $ rounds_arg $ seed_arg
      $ trajectory_arg ~run_id:"load" $ compare_sim_arg $ sim_runs_arg)

(* ---- difffuzz -------------------------------------------------------------- *)

let difffuzz_cmd =
  let workload_arg =
    Arg.(
      value & opt string "all"
      & info [ "workload" ] ~docv:"NAME"
          ~doc:
            "Workload to diff-fuzz (see $(b,scs fuzz --list-workloads)); $(b,all) covers \
             every workload that is expected to hold on atomic registers.")
  in
  let runs_arg =
    Arg.(
      value & opt positive_conv 200
      & info [ "runs" ] ~docv:"K" ~doc:"Runs per schedule policy (at least 1).")
  in
  let lag_arg =
    Arg.(
      value
      & opt int Scs_prims.Sc_prims.default_lag
      & info [ "sc-lag" ] ~docv:"LAG"
          ~doc:
            "Staleness bound of the SC backend: reads may return a value up to $(docv) \
             writes old. $(b,0) makes the SC backend observationally atomic (every run \
             must then classify as identical-verdict).")
  in
  let max_findings_arg =
    Arg.(
      value & opt int 3
      & info [ "max-findings" ] ~docv:"M"
          ~doc:"Collect at most $(docv) SC-only findings per workload.")
  in
  let expect_identical_arg =
    Arg.(
      value & flag
      & info [ "expect-identical" ]
          ~doc:
            "Exit 1 if any run classifies divergently (sc-only or lin-only). With \
             $(b,--sc-lag 0) this is the differential harness's own soundness gate: the \
             SC backend must be verdict-identical to the linearizable one.")
  in
  let run workload n_opt runs seed lag max_findings no_shrink out expect_identical =
    let workloads = select_workloads workload in
    let divergent = ref 0 and found = ref 0 in
    List.iter
      (fun (w : Fuzz_run.t) ->
        let n = Option.value n_opt ~default:w.Fuzz_run.default_n in
        let report =
          Diff_fuzz.run ~runs ~seed ~max_findings ~shrink:(not no_shrink) w ~n ~lag
        in
        let rows =
          List.map
            (fun (s : Diff_fuzz.policy_stats) ->
              [
                s.Diff_fuzz.dp_policy;
                string_of_int s.Diff_fuzz.dp_runs;
                string_of_int s.Diff_fuzz.dp_both_pass;
                string_of_int s.Diff_fuzz.dp_both_violate;
                string_of_int s.Diff_fuzz.dp_sc_only;
                string_of_int s.Diff_fuzz.dp_lin_only;
                string_of_int s.Diff_fuzz.dp_skipped;
              ])
            report.Diff_fuzz.dr_stats
        in
        Scs_util.Table.print
          ~title:
            (Printf.sprintf "difffuzz %s n=%d sc-lag=%d seed=%d" report.Diff_fuzz.dr_workload
               n lag seed)
          ~header:
            [ "policy"; "runs"; "both-pass"; "both-viol"; "sc-only"; "lin-only"; "skip" ]
          rows;
        Printf.printf "sc-only rate: %.4f violations/run\n" (Diff_fuzz.sc_only_rate report);
        List.iter
          (fun (s : Diff_fuzz.policy_stats) ->
            divergent := !divergent + s.Diff_fuzz.dp_sc_only + s.Diff_fuzz.dp_lin_only)
          report.Diff_fuzz.dr_stats;
        List.iter
          (fun (f : Diff_fuzz.finding) ->
            incr found;
            Printf.printf
              "\nSC-only violation in %s (sc-lag %d) under %s (run seed %d): %s\n"
              f.Diff_fuzz.df_workload f.Diff_fuzz.df_lag f.Diff_fuzz.df_policy
              f.Diff_fuzz.df_seed f.Diff_fuzz.df_error;
            Option.iter print_shrink f.Diff_fuzz.df_shrink;
            print_endline
              (Fuzz.render_lanes ~n ~schedule:f.Diff_fuzz.df_schedule ~crashes:[] ());
            let repro = Diff_fuzz.repro_of_finding w f in
            let path =
              save_repro ~out
                (Printf.sprintf "%s-sc%d-n%d-%d.scsrepro" f.Diff_fuzz.df_workload
                   f.Diff_fuzz.df_lag n f.Diff_fuzz.df_seed)
                repro
            in
            Printf.printf "repro written to %s (replay with `scs replay')\n" path)
          report.Diff_fuzz.dr_findings;
        print_newline ())
      workloads;
    if expect_identical && !divergent > 0 then begin
      Printf.eprintf "expected identical verdicts, got %d divergent run(s)\n" !divergent;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "difffuzz"
       ~doc:
         "Differential fuzzing across consistency models: replay the same seeded schedule \
          policies on atomic and on per-object sequentially-consistent registers, classify \
          each verdict pair, and shrink SC-only violations — minimal witnesses that \
          composed algorithms lose their guarantees when base registers are only \
          per-object SC, even though every individual register's history is SC.")
    Term.(
      const run $ workload_arg $ n_opt_arg $ runs_arg $ seed_arg $ lag_arg
      $ max_findings_arg $ no_shrink_arg $ out_arg $ expect_identical_arg)

(* ---- replay ---------------------------------------------------------------- *)

let replay_cmd =
  let files_arg =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:".scsrepro artifacts.")
  in
  let lanes_arg =
    Arg.(value & flag & info [ "lanes" ] ~doc:"Render the per-process schedule lanes.")
  in
  let run files lanes =
    let failed = ref false in
    List.iter
      (fun file ->
        let r = Fuzz.Repro.load file in
        match Fuzz_run.find_qualified r.Fuzz.Repro.workload with
        | None ->
            Printf.eprintf "%s: unknown workload %s\n" file r.Fuzz.Repro.workload;
            failed := true
        | Some (w, backend) ->
            let n = r.Fuzz.Repro.n in
            if lanes then
              print_endline
                (Fuzz.render_lanes
                   ~title:(Printf.sprintf "%s (%s)" file r.Fuzz.Repro.error)
                   ~n ~schedule:r.Fuzz.Repro.schedule ~crashes:r.Fuzz.Repro.crashes ());
            let outcome =
              Fuzz_run.replay ~backend w ~n ~schedule:r.Fuzz.Repro.schedule
                ~crashes:r.Fuzz.Repro.crashes
            in
            let describe =
              match outcome with
              | Fuzz_run.Violates msg -> Printf.sprintf "violation reproduced: %s" msg
              | Fuzz_run.Passes -> "check PASSED: recorded violation did not reproduce"
              | Fuzz_run.Skipped msg -> "skipped: " ^ msg
              | Fuzz_run.Drifted p -> Printf.sprintf "replay drift at pid %d" p
            in
            let crash_desc =
              match r.Fuzz.Repro.crashes with
              | [] -> ""
              | cs -> Printf.sprintf " crashes %s" (Crash.list_to_string cs)
            in
            Printf.printf "%s [%s n=%d %d turns%s]: %s\n" file r.Fuzz.Repro.workload n
              (Array.length r.Fuzz.Repro.schedule) crash_desc describe;
            if outcome <> Fuzz_run.Violates r.Fuzz.Repro.error then
              match outcome with
              | Fuzz_run.Violates _ -> () (* different message, still a violation *)
              | _ -> failed := true)
      files;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Deterministically replay .scsrepro artifacts with strict scripting; exit status 0 \
          iff every recorded violation re-triggers.")
    Term.(const run $ files_arg $ lanes_arg)

(* ---- main ---------------------------------------------------------------- *)

let () =
  let info =
    Cmd.info "scs" ~version:"1.0.0"
      ~doc:"Safely composable shared-memory algorithms (SPAA 2012 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            experiment_cmd;
            simulate_cmd;
            consensus_cmd;
            check_cmd;
            explore_cmd;
            fuzz_cmd;
            difffuzz_cmd;
            load_cmd;
            replay_cmd;
            stats_cmd;
          ]))
