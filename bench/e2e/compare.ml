(* r3bench compare PARENT... -- CHANGE...

   Each argument is the saved standard output of one `--trace 0` run.
   Runs are paired in argument order (parent i with change i), which is
   how alternating pairs are collected: run parent, run change, repeat,
   switching which side goes first. For every (workload, end-to-end
   metric) the rule is:

   - better: at least 10 pairs, the change wins at least 9 in 10 of them,
     and its median is lower by more than the parent's IQR;
   - worse: the change's median is worse than the parent's by more than
     the metric's bound in BENCHMARK.json - counted only when the
     parent's own spread is within the bound, or when the change loses
     at least 9 in 10 pairs;
   - unresolved: fewer than 10 pairs, or the parent's spread (IQR /
     median) is wider than the bound, unless every change run reads
     better than every parent run;
   - unchanged: otherwise.

   A change whose runs fail more operations than the parent's is worse
   on the "failed" row. Exit status 1 when any row is worse. *)

module J = R3_util.Json
module Stats = R3_util.Stats

type run = {
  file : string;
  workload : string;
  digest : string;
  metrics : (string * float) list;
  failed : int;
}

let field k = function J.Obj f -> List.assoc_opt k f | _ -> None

let read_run file =
  let objects =
    In_channel.with_open_text file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           let l = String.trim l in
           if String.length l > 0 && l.[0] = '{' then
             try Some (J.of_string l) with J.Parse_error _ -> None
           else None)
  in
  let detail = List.find_map (field "r3bench") objects in
  let result = match List.rev objects with last :: _ -> Some last | [] -> None in
  match (detail, result) with
  | Some d, Some r -> (
    match (field "workload" d, field "inputs_digest" d, field "metrics" r, field "failed" r) with
    | Some (J.String workload), Some (J.String digest), Some (J.Obj ms), Some (J.Int failed) ->
      let value = function
        | J.Obj f -> (
          match List.assoc_opt "value" f with
          | Some (J.Float v) -> Some v
          | Some (J.Int v) -> Some (float_of_int v)
          | _ -> None)
        | _ -> None
      in
      Ok
        {
          file;
          workload;
          digest;
          metrics = List.filter_map (fun (n, v) -> Option.map (fun v -> (n, v)) (value v)) ms;
          failed;
        }
    | _ -> Error (file ^ ": not an r3bench --trace 0 result"))
  | _ -> Error (file ^ ": no r3bench result found")

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* Every end-to-end metric of this benchmark is lower-is-better. *)
let decide ~bound p c =
  let n = Int.min (Array.length p) (Array.length c) in
  if n = 0 then (Unresolved, 0, nan, nan, nan, 0)
  else
  let p = Array.sub p 0 n and c = Array.sub c 0 n in
  let mp = Stats.median p and mc = Stats.median c in
  let iqr =
    match Stats.quantiles ~ps:[ 25.0; 75.0 ] p with [ q1; q3 ] -> q3 -. q1 | _ -> assert false
  in
  let wins = ref 0 and losses = ref 0 in
  Array.iteri
    (fun i pv -> if c.(i) < pv then incr wins else if c.(i) > pv then incr losses)
    p;
  let spread_ok = iqr <= bound *. Float.abs mp in
  let all_better = Stats.max c < Stats.min p in
  let v =
    if n < 10 then Unresolved
    else if 10 * !wins >= 9 * n && mp -. mc > iqr then Better
    else if mc > mp +. (bound *. Float.abs mp) && (spread_ok || 10 * !losses >= 9 * n) then Worse
    else if (not spread_ok) && not all_better then Unresolved
    else Unchanged
  in
  (v, n, mp, mc, iqr, !wins)

let bounds benchmark =
  match field "end_to_end" (J.read_file benchmark) with
  | Some (J.List items) ->
    List.filter_map
      (fun m ->
        match (field "name" m, field "bound" m) with
        | Some (J.String n), Some (J.Float b) -> Some (n, b)
        | Some (J.String n), Some (J.Int b) -> Some (n, float_of_int b)
        | _ -> None)
      items
  | _ -> failwith (benchmark ^ ": no end_to_end metrics")

let main args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let benchmark, args =
    let rec strip acc = function
      | "--benchmark" :: b :: rest -> (Some b, List.rev_append acc rest)
      | x :: rest -> strip (x :: acc) rest
      | [] -> (None, List.rev acc)
    in
    let b, a = strip [] args in
    (Option.value b ~default:"BENCHMARK.json", a)
  in
  let parent_files, change_files = split [] args in
  if parent_files = [] || change_files = [] then begin
    prerr_endline "usage: r3bench compare PARENT.json... -- CHANGE.json... [--benchmark FILE]";
    2
  end
  else begin
    let load files =
      List.map
        (fun f -> match read_run f with Ok r -> r | Error e -> failwith e)
        files
    in
    let parent = load parent_files and change = load change_files in
    let bounds = bounds benchmark in
    let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (parent @ change)) in
    let worse = ref false in
    Printf.printf "%-16s %-20s %14s %14s %12s %8s %7s  %s\n" "workload" "metric" "parent_median"
      "change_median" "parent_iqr" "delta" "wins" "verdict";
    List.iter
      (fun w ->
        let p = List.filter (fun r -> r.workload = w) parent in
        let c = List.filter (fun r -> r.workload = w) change in
        let n = Int.min (List.length p) (List.length c) in
        List.iteri
          (fun i (a : run) ->
            if i < n then begin
              let b = List.nth c i in
              if a.digest <> b.digest then
                Printf.printf "warning: %s pair %d measured different inputs (%s vs %s)\n" w i
                  a.file b.file
            end)
          p;
        List.iter
          (fun (metric, bound) ->
            let values runs =
              Array.of_list
                (List.filter_map (fun r -> List.assoc_opt metric r.metrics) runs)
            in
            let v, pairs, mp, mc, iqr, wins = decide ~bound (values p) (values c) in
            if v = Worse then worse := true;
            Printf.printf "%-16s %-20s %14.6g %14.6g %12.4g %+7.2f%% %3d/%-3d  %s\n" w metric mp
              mc iqr
              (100.0 *. (mc -. mp) /. mp)
              wins pairs (verdict_name v))
          bounds;
        let failed runs = List.fold_left (fun a r -> a + r.failed) 0 runs in
        let fp = failed p and fc = failed c in
        let v = if fc > fp then Worse else Unchanged in
        if v = Worse then worse := true;
        Printf.printf "%-16s %-20s %14d %14d %12s %8s %7s  %s\n" w "failed" fp fc "-" "-" "-"
          (verdict_name v))
      workloads;
    if !worse then 1 else 0
  end
