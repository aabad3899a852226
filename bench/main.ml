(* csrtl experiment report and scaling gate.

   Run with: dune exec bench/main.exe                  (the report)
             dune exec bench/main.exe -- report        (the same)
             dune exec bench/main.exe -- scaling-check
                                        (gate: 2-worker campaign efficiency
                                         >= 0.6 with byte-identical reports)

   The report (bench/report.ml) regenerates every figure, table and
   claim of the paper's evaluation (DESIGN.md experiments F1-F3, T1,
   C1-C9, T and A).  Timing claims are measured by perfbench/run.py. *)

let () =
  match Array.to_list Sys.argv with
  | [ _ ] | [ _; "report" ] -> Report.run ()
  | [ _; "scaling-check" ] ->
    (match Report.scaling_check () with
     | Ok () -> ()
     | Error e ->
       Printf.eprintf "%s\n" e;
       exit 1)
  | _ ->
    prerr_endline "usage: main.exe [report | scaling-check]";
    exit 2
