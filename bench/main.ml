(* Benchmark harness entry point.

   Usage:
     dune exec bench/main.exe                 # every experiment, quick mode
     dune exec bench/main.exe -- fig5 table2  # selected experiments
     dune exec bench/main.exe -- --full all   # full scenario counts
     dune exec bench/main.exe -- micro        # Bechamel micro suite

   Each experiment regenerates one table or figure of the paper; see
   DESIGN.md for the experiment index and EXPERIMENTS.md for the
   paper-vs-measured record. *)

let experiments =
  [
    ("table1", Experiments.table1);
    ("fig3", Experiments.fig3);
    ("fig4", Experiments.fig4);
    ("fig5", Experiments.fig5);
    ("fig6", Experiments.fig6);
    ("fig7", Experiments.fig7);
    ("fig8", Experiments.fig8);
    ("fig9", Experiments.fig9);
    ("fig10", Experiments.fig10);
    ("fig11", Experiments.fig11);
    ("fig12", Experiments.fig12);
    ("fig13", Experiments.fig13);
    ("table2", Experiments.table2);
    ("table3", Experiments.table3);
    ("ablation", Experiments.ablation);
    ("sweep", Sweep_bench.run);
    ("reconfig", Reconfig_bench.run);
    ("online", Online_bench.run);
    ("plan", Plan_bench.run);
    ("micro", Micro.main);
  ]

let run_one name =
  match List.assoc_opt name experiments with
  | Some f ->
    let (), dt = R3_util.Timer.time f in
    Printf.printf "\n[%s completed in %.1fs]\n%!" name dt
  | None ->
    Printf.eprintf "unknown experiment %S; available: %s\n" name
      (String.concat " " (List.map fst experiments));
    exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let flags, names = List.partition (fun a -> String.length a > 0 && a.[0] = '-') args in
  if List.mem "--full" flags then Harness.quick := false;
  if List.mem "--smoke" flags then Harness.smoke := true;
  let names = match names with [] | [ "all" ] -> List.map fst experiments | ns -> ns in
  Printf.printf "R3 reproduction benchmark harness (%s mode)\n"
    (if !Harness.quick then "quick" else "full");
  let (), total = R3_util.Timer.time (fun () -> List.iter run_one names) in
  Printf.printf "\nAll requested experiments done in %.1fs.\n" total
