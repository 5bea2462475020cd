(* Recorded outputs, one per (workload, seed, fault seed), printed by
   goldens_gen.exe from Reference.run.  At the default seed they are also
   [Experiment.run]'s -- the code behind [dream-sim run] -- so a pass that
   matches them reproduces [dream-sim run] bit for bit; at other seeds they
   lock this commit's outputs.  Regenerate with
   [dune exec perfbench/goldens_gen.exe -- 7 1013 0 1 ...] and paste the
   output here only when a change is meant to alter simulation outputs. *)

type t = { workload : string; seed : int; fault_seed : int; digest : string; headline : string }

let table : t list =
  [
    { workload = "paper_mixed"; seed = 7; fault_seed = 97;
      digest = "4914829c85413aaef3e3ae6f93a37b8a";
      headline = "75.4/50.0/28.4/1.1 installed=325654 fetched=3313078" };
    { workload = "wide_tcam"; seed = 7; fault_seed = 97;
      digest = "a4fa136587277a4912d55339e03b5d47";
      headline = "87.1/67.5/0.0/0.0 installed=198044 fetched=8108541" };
    { workload = "degraded_ops"; seed = 7; fault_seed = 97;
      digest = "4df02e4a9e06cd42d5e11ca7b431cacf";
      headline = "66.5/39.5/33.0/1.1 installed=357188 fetched=3267174" };
    { workload = "paper_mixed"; seed = 1013; fault_seed = 1103;
      digest = "cc49f6c039f4f3715cbb0bddac5a997c";
      headline = "78.1/51.8/22.7/0.0 installed=322323 fetched=3028120" };
    { workload = "wide_tcam"; seed = 1013; fault_seed = 1103;
      digest = "fe8d13de120d99d1a7a022e039b3432f";
      headline = "87.6/67.6/0.0/0.0 installed=170679 fetched=8264100" };
    { workload = "degraded_ops"; seed = 1013; fault_seed = 1103;
      digest = "d08805b69a1258d922017c497a5a5010";
      headline = "63.3/36.7/28.4/1.1 installed=384775 fetched=3286790" };
    { workload = "paper_mixed"; seed = 0; fault_seed = 90;
      digest = "68b1e4988d6b81c092fe616fcc8a6b21";
      headline = "79.4/57.3/22.7/2.3 installed=320996 fetched=3319470" };
    { workload = "wide_tcam"; seed = 0; fault_seed = 90;
      digest = "7ed8808f67418674a31c7b56933a34cb";
      headline = "88.4/70.9/0.0/0.0 installed=183736 fetched=8178648" };
    { workload = "degraded_ops"; seed = 0; fault_seed = 90;
      digest = "9ba4d8ffcfb5d8b7940b7d062a16a0fe";
      headline = "67.8/43.0/25.0/2.3 installed=404543 fetched=3472000" };
    { workload = "paper_mixed"; seed = 1; fault_seed = 91;
      digest = "78be4671a514789bcdc48f789113be03";
      headline = "78.3/61.1/21.6/0.0 installed=303277 fetched=3097954" };
    { workload = "wide_tcam"; seed = 1; fault_seed = 91;
      digest = "afefe5757a379e9eae67a8a9963b05e7";
      headline = "88.3/75.0/0.0/0.0 installed=181966 fetched=8255017" };
    { workload = "degraded_ops"; seed = 1; fault_seed = 91;
      digest = "f1f9b1579ee3d3bd5e5990cf09340ff2";
      headline = "69.4/42.4/29.5/1.1 installed=342070 fetched=3738933" };
    { workload = "paper_mixed"; seed = 2; fault_seed = 92;
      digest = "680542c65026f2429e3070ff43e00a39";
      headline = "75.4/46.7/31.8/1.1 installed=322273 fetched=3086439" };
    { workload = "wide_tcam"; seed = 2; fault_seed = 92;
      digest = "989043a6b94b1e6e582fd7b098484187";
      headline = "87.7/69.3/0.0/0.0 installed=187736 fetched=8153860" };
    { workload = "degraded_ops"; seed = 2; fault_seed = 92;
      digest = "697690b27e828ace1a20779b2564c975";
      headline = "62.1/25.5/28.4/2.3 installed=347487 fetched=3012991" };
    { workload = "paper_mixed"; seed = 3; fault_seed = 93;
      digest = "16355174ab4ab5ec5091f768870a05a4";
      headline = "75.2/50.2/29.5/3.4 installed=306785 fetched=3031737" };
    { workload = "wide_tcam"; seed = 3; fault_seed = 93;
      digest = "14ca24521b74394f66fc201312b44871";
      headline = "86.8/62.3/0.0/0.0 installed=186992 fetched=8163312" };
    { workload = "degraded_ops"; seed = 3; fault_seed = 93;
      digest = "bd923eefcd88f667fdea846dcec6618c";
      headline = "67.0/35.4/29.5/2.3 installed=349365 fetched=3566926" };
    { workload = "paper_mixed"; seed = 4; fault_seed = 94;
      digest = "8ffc5289ad883be5e8b615abae03ded2";
      headline = "75.0/49.9/26.1/0.0 installed=365315 fetched=3368926" };
    { workload = "wide_tcam"; seed = 4; fault_seed = 94;
      digest = "eb70043f2886f1741738534d5e1318dc";
      headline = "88.0/71.4/0.0/0.0 installed=174301 fetched=8038036" };
    { workload = "degraded_ops"; seed = 4; fault_seed = 94;
      digest = "785315866919787f9027e62275a9671a";
      headline = "66.7/42.2/31.8/3.4 installed=360175 fetched=3370144" };
    { workload = "paper_mixed"; seed = 5; fault_seed = 95;
      digest = "38522b3b174d844ae87358b764894d4b";
      headline = "79.5/55.4/27.3/0.0 installed=304298 fetched=3229094" };
    { workload = "wide_tcam"; seed = 5; fault_seed = 95;
      digest = "05ffe6f2af011357f4c0555047311704";
      headline = "88.0/71.3/0.0/0.0 installed=171991 fetched=8101352" };
    { workload = "degraded_ops"; seed = 5; fault_seed = 95;
      digest = "b2d05f157d94f062a69b235033f84634";
      headline = "67.7/40.2/21.6/1.1 installed=327100 fetched=3169438" };
    { workload = "paper_mixed"; seed = 6; fault_seed = 96;
      digest = "30fc7410dda3dd6732e033a0b87d58c4";
      headline = "79.9/59.3/25.0/0.0 installed=295209 fetched=3037181" };
    { workload = "wide_tcam"; seed = 6; fault_seed = 96;
      digest = "628367d3458a48037c760bcd7848e2e4";
      headline = "86.9/65.0/0.0/0.0 installed=180083 fetched=8102642" };
    { workload = "degraded_ops"; seed = 6; fault_seed = 96;
      digest = "5165fdf0c2ff24a3567fbeaf3895a3b5";
      headline = "65.6/35.0/29.5/1.1 installed=358140 fetched=3520862" };
    { workload = "paper_mixed"; seed = 8; fault_seed = 98;
      digest = "a8b5847169e78c4147b8c7b811a8b0ba";
      headline = "74.3/49.5/27.3/0.0 installed=308123 fetched=3120266" };
    { workload = "wide_tcam"; seed = 8; fault_seed = 98;
      digest = "285b0b94d29f8f2d6c100c2db98d9ef1";
      headline = "87.0/63.5/0.0/0.0 installed=184116 fetched=8033719" };
    { workload = "degraded_ops"; seed = 8; fault_seed = 98;
      digest = "9af13b7f5967359279086871bb786f23";
      headline = "67.1/40.0/30.7/2.3 installed=332092 fetched=3316646" };
    { workload = "paper_mixed"; seed = 9; fault_seed = 99;
      digest = "2fb649e2605685068e748b4d89e4d790";
      headline = "77.9/50.3/25.0/0.0 installed=328236 fetched=3538261" };
    { workload = "wide_tcam"; seed = 9; fault_seed = 99;
      digest = "9d520ca3331176ffb7b6a93fdf5839e8";
      headline = "87.7/73.0/0.0/0.0 installed=200214 fetched=8295983" };
    { workload = "degraded_ops"; seed = 9; fault_seed = 99;
      digest = "772c4400ebc6e6f9c380e299f8139134";
      headline = "61.1/32.0/27.3/3.4 installed=352614 fetched=3291958" };
    { workload = "paper_mixed"; seed = 10; fault_seed = 100;
      digest = "933b23230971028c4b80a3646ef613ee";
      headline = "75.6/50.5/27.3/0.0 installed=264450 fetched=3055047" };
    { workload = "wide_tcam"; seed = 10; fault_seed = 100;
      digest = "6c6233ef843eb5f94c4e4092382c5579";
      headline = "88.0/70.0/0.0/0.0 installed=188570 fetched=8073740" };
    { workload = "degraded_ops"; seed = 10; fault_seed = 100;
      digest = "a0f765ac2f924e61fb3bd9bff326f1b0";
      headline = "68.7/45.3/34.1/2.3 installed=342901 fetched=3252561" };
    { workload = "paper_mixed"; seed = 11; fault_seed = 101;
      digest = "aa7899a394ea9f9e41e897fcf8c7bdab";
      headline = "75.7/51.4/28.4/1.1 installed=312050 fetched=3071542" };
    { workload = "wide_tcam"; seed = 11; fault_seed = 101;
      digest = "ecadd253313371c514583eeb10488c7e";
      headline = "87.6/72.5/0.0/0.0 installed=189635 fetched=8202637" };
    { workload = "degraded_ops"; seed = 11; fault_seed = 101;
      digest = "363ecd52b02a2d23ef1df6cd36eff0eb";
      headline = "65.3/37.9/29.5/1.1 installed=362805 fetched=3186620" };
    { workload = "paper_mixed"; seed = 12; fault_seed = 102;
      digest = "a5d266a02ab4c325d33828b402f652d2";
      headline = "77.8/55.0/29.5/1.1 installed=326827 fetched=3191809" };
    { workload = "wide_tcam"; seed = 12; fault_seed = 102;
      digest = "9913765b44a48507fb6e14091e790e5b";
      headline = "87.7/70.0/0.0/0.0 installed=171465 fetched=8115044" };
    { workload = "degraded_ops"; seed = 12; fault_seed = 102;
      digest = "b1ac6546fa940d827656b79f1d1feef2";
      headline = "64.4/41.1/30.7/5.7 installed=370323 fetched=3192965" };
  ]

let find ?(table = table) ~workload ~seed ~fault_seed () =
  List.find_opt (fun g -> g.workload = workload && g.seed = seed && g.fault_seed = fault_seed) table

(* Compare a pass's outputs with the reference recorded for its seeds. *)
let verify ?table ~workload ~seed ~fault_seed ~digest ~headline () =
  match find ?table ~workload ~seed ~fault_seed () with
  | None -> `Unrecorded
  | Some g when g.digest = digest && g.headline = headline -> `Match
  | Some g -> `Mismatch (Printf.sprintf "expected %s digest %s" g.headline g.digest)
