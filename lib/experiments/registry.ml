type t = { id : string; title : string; run : unit -> unit }

let all =
  [
    { id = "T1"; title = "A1: O(1) steps/space; aborts need step contention"; run = Exp_t1.run };
    { id = "T2"; title = "Composed TAS cost vs baselines; switch cost"; run = Exp_t2.run };
    { id = "T3"; title = "SplitConsensus: O(1) solo, interval-contention progress"; run = Exp_t3.run };
    { id = "T4"; title = "AbortableBakery: Θ(n) solo, step-contention progress"; run = Exp_t4.run };
    { id = "T5"; title = "State transfer: generic UC vs semantics-aware TAS"; run = Exp_t5.run };
    { id = "T6"; title = "Consensus power of base objects"; run = Exp_t6.run };
    { id = "T7"; title = "Fence complexity (RAW/AWAR)"; run = Exp_t7.run };
    { id = "T8"; title = "Solo-fast variant (Appendix B)"; run = Exp_t8.run };
    { id = "T9"; title = "Extension: composition cost by object (open question)"; run = Exp_t9.run };
    {
      id = "T10";
      title = "Explorer throughput: single-replay DFS, POR, multicore fan-out";
      run = Exp_t10.run;
    };
    {
      id = "T11";
      title = "Fuzzing throughput, time-to-first-failure, shrinking";
      run = Exp_t11.run;
    };
    {
      id = "T12";
      title = "Checker throughput: scalable engine";
      run = Exp_t12.run;
    };
    {
      id = "T13";
      title = "Observability layer: step/contention claims measured by the obs sink";
      run = Exp_t13.run;
    };
    { id = "F1"; title = "Figure 1 dynamics: contention sweep"; run = Exp_f1.run };
    { id = "F2"; title = "Native multicore throughput"; run = Exp_f2.run };
  ]

let find id =
  List.find_opt (fun e -> String.lowercase_ascii e.id = String.lowercase_ascii id) all

let run_all () = List.iter (fun e -> e.run ()) all
