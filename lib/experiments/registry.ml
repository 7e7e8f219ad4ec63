type t = { id : string; title : string; ns : int list; run : unit -> unit }

let all =
  [
    {
      id = "T1";
      title = "A1: O(1) steps/space; aborts need step contention";
      ns = Exp_common.solo_ns;
      run = Exp_t1.run;
    };
    {
      id = "T2";
      title = "Composed TAS cost vs baselines; switch cost";
      ns = Exp_t2.ns;
      run = Exp_t2.run;
    };
    {
      id = "T3";
      title = "SplitConsensus: O(1) solo, interval-contention progress";
      ns = Exp_common.solo_ns;
      run = Exp_t3.run;
    };
    {
      id = "T4";
      title = "AbortableBakery: Θ(n) solo, step-contention progress";
      ns = Exp_common.solo_ns;
      run = Exp_t4.run;
    };
    {
      id = "T5";
      title = "State transfer: generic UC vs semantics-aware TAS";
      ns = [];
      run = Exp_t5.run;
    };
    { id = "T6"; title = "Consensus power of base objects"; ns = []; run = Exp_t6.run };
    { id = "T7"; title = "Fence complexity (RAW/AWAR)"; ns = []; run = Exp_t7.run };
    { id = "T8"; title = "Solo-fast variant (Appendix B)"; ns = []; run = Exp_t8.run };
    {
      id = "T9";
      title = "Extension: composition cost by object (open question)";
      ns = [];
      run = Exp_t9.run;
    };
    {
      id = "T10";
      title = "Explorer throughput: single-replay DFS, POR, multicore fan-out";
      ns = [];
      run = Exp_t10.run;
    };
    {
      id = "T11";
      title = "Fuzzing throughput, time-to-first-failure, shrinking";
      ns = [];
      run = Exp_t11.run;
    };
    { id = "T12"; title = "Checker throughput: scalable engine"; ns = []; run = Exp_t12.run };
    {
      id = "T13";
      title = "Observability layer: step/contention claims measured by the obs sink";
      ns = Exp_common.solo_ns;
      run = Exp_t13.run;
    };
    { id = "F1"; title = "Figure 1 dynamics: contention sweep"; ns = []; run = Exp_f1.run };
  ]

let find id =
  List.find_opt (fun e -> String.lowercase_ascii e.id = String.lowercase_ascii id) all

let run_all () = List.iter (fun e -> e.run ()) all
